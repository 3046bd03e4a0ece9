"""The mutation gate's catalog: faults that the tests must catch.

Each mutant replaces one exact piece of a source file with a faulty
version and names the tests that must fail on it.  ``mutants/run.py``
applies each to its own copy of the tree and runs only those tests.

The rules:

* the old text occurs exactly once in its file; text that no longer
  matches is an error, not a skip (``check``);
* a killer is a test outside the identity files: a pinned digest says
  that something moved, not what is wrong;
* a mutant that survives is answered by a stronger test, never by
  deleting the mutant.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

IDENTITY_FILES = (
    "tests/test_trace_identity.py",
    "tests/test_untraced_identity.py",
    "tests/test_benchmark_digests.py",
)


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str  # exact text, found exactly once in ``file``
    new: str
    killers: tuple[str, ...]  # pytest node ids, at least one must fail
    source: str  # where the fault was first seen


CATALOG = (
    Mutant(
        name="wave-in-arrival-order",
        file="src/distheap/node.py",
        old='''\
        self._wave_add(kind, key, parent, _first_child(parent) + kids.index(child), msg.value)

    def wave_down(self, kind: str, key: tuple, vid: VirtualId, share: Any) -> None:
        """Split ``share`` at ``vid`` over the combined parts, push child
        shares down and deliver M's own.  The session ends here."""
        sess = self._waves.pop((kind, key, vid), None)
        if sess is None or sess.missing:
            raise SimulationFault(f"{kind}{key} at {vid} ended before the wave combined")
        split = getattr(self, _KIND_HANDLER_NAMES["split", kind], None)
        shares = split_interval(share, sess.parts) if split is None else split(share, sess.parts)
        first = _first_child(vid)
        for child, child_share in zip(self.topo.inner_children[vid], shares[first:]):
''',
        new='''\
        arrived = self.__dict__.setdefault("_arrived", {}).setdefault((kind, key, parent), [])
        arrived.append(child)
        self._wave_add(kind, key, parent, _first_child(parent) + len(arrived) - 1, msg.value)

    def wave_down(self, kind: str, key: tuple, vid: VirtualId, share: Any) -> None:
        sess = self._waves.pop((kind, key, vid), None)
        if sess is None or sess.missing:
            raise SimulationFault(f"{kind}{key} at {vid} ended before the wave combined")
        split = getattr(self, _KIND_HANDLER_NAMES["split", kind], None)
        shares = split_interval(share, sess.parts) if split is None else split(share, sess.parts)
        first = _first_child(vid)
        arrived = self.__dict__.get("_arrived", {}).pop((kind, key, vid), [])
        for child, child_share in zip(arrived, shares[first:]):
''',
        killers=("tests/test_schedules.py::test_heap_records_do_not_depend_on_the_schedule",),
        source="ROADMAP items 11 and 16: only the pinned digests caught it",
    ),
    Mutant(
        name="seap-k-star-one-short",
        file="src/distheap/skeap_plus.py",
        old="        k_star = min(k, self.m)\n",
        new="        k_star = min(k, self.m) - 1\n",
        killers=("tests/test_scripts.py::test_generated_seap_scripts_run_correctly",),
        source="CHANGES.md, heap records carry their epoch: scratch mutation",
    ),
    Mutant(
        name="seap-m-read-before-the-insert-count",
        file="src/distheap/skeap_plus.py",
        old='''\
        inserted = yield "si", key  # read m only once the count is here
        self.m += inserted
''',
        new='''\
        self.m += yield "si", key
''',
        killers=("tests/test_scripts.py::test_generated_seap_scripts_run_correctly",),
        source="CHANGES.md, Seap's epoch program reads m when the insert count arrives",
    ),
    Mutant(
        name="seap-element-returned-twice",
        file="src/distheap/skeap_plus.py",
        old="        req.returned = msg.element\n",
        new='        req.returned = self.__dict__.setdefault("_first_returned", msg.element)\n',
        killers=(
            "tests/test_skeap_plus.py::test_elements_left_in_the_heap_count_in_the_next_epoch",
        ),
        source="CHANGES.md, heap records carry their epoch: scratch mutation",
    ),
    Mutant(
        name="seap-deletes-serialized-by-position",
        file="src/distheap/skeap_plus.py",
        old="        return r.epoch, 1, r.returned.key\n",
        new="        return r.epoch, 1, r.assigned\n",
        killers=("tests/test_scripts.py::test_generated_seap_scripts_run_correctly",),
        source="ROADMAP item 11: the pre-item-1 sort key",
    ),
    Mutant(
        name="wave-down-keeps-its-session",
        file="src/distheap/node.py",
        old="        sess = self._waves.pop((kind, key, vid), None)\n",
        new="        sess = self._waves.get((kind, key, vid))\n",
        killers=("tests/test_skeap_plus.py::test_no_wave_session_outlives_a_run",),
        source="a two-way wave session ends only at its share",
    ),
    Mutant(
        name="one-way-wave-keeps-its-session",
        file="src/distheap/node.py",
        old='''\
        if not hasattr(self, _KIND_HANDLER_NAMES["deliver", kind]):
            del self._waves[sk]  # a one-way wave: no share will come down
''',
        new="",
        killers=(
            "tests/test_kselect.py::test_no_wave_session_outlives_a_selection",
            "tests/test_skeap_plus.py::test_no_wave_session_outlives_a_run",
            "tests/test_node.py::test_one_way_wave_sessions_end_with_their_combine",
        ),
        source="a wave kind is two-way exactly when the node has its deliver_k",
    ),
    Mutant(
        name="route-step-forgets-the-wrap-arc",
        file="src/distheap/overlay.py",
        old=(
            "        elif key >= labels[at] or key < labels[0]:"
            "  # the last node owns the wrap arc\n"
        ),
        new="        elif key >= labels[at]:\n",
        killers=("tests/test_overlay.py::test_route_step_stops_exactly_at_the_owner",),
        source="ROADMAP item 11's seed catalog",
    ),
    Mutant(
        name="combine-all-skips-the-priority-check",
        file="src/distheap/batches.py",
        old='''\
    for b in batches:
        if b.priorities != priorities:
            raise SimulationFault("cannot combine batches over different priority sets")
        if b.entries:
''',
        new='''\
    for b in batches:
        if b.entries:
''',
        killers=(
            "tests/test_batches.py::test_combine_all_checks_the_priority_count_of_empty_parts",
        ),
        source="ROADMAP item 11's seed catalog",
    ),
    Mutant(
        name="decompose-drops-a-running-offset",
        file="src/distheap/batches.py",
        old="            ins_off += sum(vec)\n",
        new="",
        killers=("tests/test_batches.py::test_decompose_offsets_accumulate",),
        source="ROADMAP item 11's seed catalog",
    ),
    Mutant(
        name="route-hop-keeps-its-vid",
        file="src/distheap/node.py",
        old="            msg.vid = nxt\n",
        new="",
        killers=(
            "tests/test_node.py::"
            "test_each_route_hop_goes_along_the_oracle_path_and_is_sized_from_its_fields",
        ),
        source="a route is one RouteMsg, advanced in place hop by hop",
    ),
    Mutant(
        name="src-grows-an-uncalled-helper",
        file="src/distheap/hashing.py",
        old="def hash_unit(tag: int, inputs: tuple[int, ...], seed: int) -> float:\n",
        new='''\
def hash_bit(tag: int, inputs: tuple[int, ...], seed: int) -> int:
    """A fair coin for the given inputs; only a test would call it."""
    return mix64(seed, tag, *inputs) & 1


def hash_unit(tag: int, inputs: tuple[int, ...], seed: int) -> float:
''',
        killers=("tests/test_census.py::test_every_src_def_is_called_or_allowed",),
        source="ROADMAP item 21: src/ holds only what a run, the CLI or the benchmark calls",
    ),
    Mutant(
        name="src-grows-an-unread-field",
        file="src/distheap/kselect.py",
        old="    rounds: int = 0\n",
        new="    rounds: int = 0\n    barriers: int = 0  # written, never read\n",
        killers=("tests/test_census.py::test_every_src_dataclass_field_is_read_or_allowed",),
        source="ROADMAP item 23: src/ keeps no data that no run reads",
    ),
    Mutant(
        name="flood-hook-drops-silently",
        file="src/distheap/node.py",
        old='''\
        if msg.vid.kind == MIDDLE:  # L only relays
            self._handler("flood", msg.kind)(msg.key, msg.payload)
''',
        new='''\
        if msg.vid.kind == MIDDLE:  # L only relays
            getattr(self, "flood_" + msg.kind, lambda key, payload: None)(msg.key, msg.payload)
''',
        killers=(
            "tests/test_node.py::test_a_flood_that_no_protocol_handles_is_a_fault",
            "tests/test_node.py::test_a_flood_that_no_node_handles_is_a_fault_where_it_arrives",
        ),
        source="ROADMAP item 21: the silent default hooks",
    ),
    Mutant(
        name="unhandled-message-dropped",
        file="src/distheap/node.py",
        old='''\
        if handler is None:
            raise SimulationFault(f"unhandled message {type(payload).__name__}")
''',
        new='''\
        if handler is None:
            return
''',
        killers=(
            "tests/test_node.py::test_a_message_that_no_node_handles_is_a_fault_where_it_arrives",
        ),
        source="a node handles type T in on_T: a type with no handler is a fault",
    ),
    Mutant(
        name="collector-left-paused",
        file="src/distheap/sim.py",
        old="""\
    finally:
        if was_on:
            gc.enable()
""",
        new="""\
    finally:
        pass
""",
        killers=(
            "tests/test_collector.py::test_a_run_puts_back_the_collector_state",
            "tests/test_collector.py::test_a_run_that_raises_puts_back_the_collector_state",
        ),
        source="the engine pauses the cyclic collector and puts back the caller's state",
    ),
    Mutant(
        name="collector-never-paused",
        file="src/distheap/sim.py",
        old="    gc.disable()\n",
        new="",
        killers=(
            "tests/test_collector.py::test_starts_and_handlers_run_with_the_collector_paused",
        ),
        source="the engine pauses the cyclic collector and puts back the caller's state",
    ),
    Mutant(
        name="arrived-route-keeps-itself",
        file="src/distheap/node.py",
        old="            inner = msg.inner\n",
        new="            inner = msg.inner\n            msg.inner = msg\n",
        killers=("tests/test_collector.py::test_a_run_leaves_no_cyclic_garbage",),
        source="a run makes no reference cycles, which makes the collector's pause safe",
    ),
    Mutant(
        name="fold-last-value-unmasked",
        file="src/distheap/hashing.py",
        old="    x = ((values[-1] & _MASK) + _GOLDEN) & _MASK\n",
        new="    x = (values[-1] & _MASK) + _GOLDEN\n",
        killers=(
            "tests/test_hashing.py::test_mix64_equals_the_plain_fold",
            "tests/test_hashing.py::test_hash_unit_is_pinned",
        ),
        source="mix64 folds each repeated prefix once: every pinned digest passed on it",
    ),
    Mutant(
        name="below-draws-one-bit-short",
        file="src/distheap/hashing.py",
        old="    k = n.bit_length()\n",
        new="    k = (n - 1).bit_length()\n",
        killers=(
            "tests/test_hashing.py::test_below_draws_the_randrange_stream",
            "tests/test_hashing.py::test_one_plus_below_draws_the_randint_stream",
        ),
        source="integer draws come straight from getrandbits, by CPython's rule",
    ),
    Mutant(
        name="round-max-bits-carried-over",
        file="src/distheap/sim.py",
        old="        max_bits, self._outbox_bits = self._outbox_bits, 0\n",
        new="        max_bits = self._outbox_bits\n",
        killers=("tests/test_sim.py::test_round_metrics_count_only_that_rounds_messages",),
        source="messages are plain tuples: a round reads its largest message off the outbox",
    ),
    Mutant(
        name="takeover-in-send-order",
        file="src/distheap/sim.py",
        old="""\
                for dst in sorted(pending):
                    for src, payload, bits, seq in pending[dst]:
""",
        new="""\
                queued = sorted((m[3], dst, m) for dst in pending for m in pending[dst])
                for _, dst, (src, payload, bits, seq) in queued:
""",
        killers=(
            "tests/test_sim.py::test_async_takeover_draws_starts_then_deadlines_by_destination",
        ),
        source="messages are plain tuples: the event heap takes over a dict of queues",
    ),
    Mutant(
        name="takeover-filed-in-draw-order",
        file="src/distheap/sim.py",
        old="                taken.sort()\n",
        new="",
        killers=(
            "tests/test_sim.py::"
            "test_async_tick_runs_starts_from_the_highest_id_then_deliveries_in_send_order",
        ),
        source="the async ring: a tick's list must hold the taken-over messages in send order",
    ),
    Mutant(
        name="async-tick-in-reverse-send-order",
        file="src/distheap/sim.py",
        old="                    for src, dst, payload, bits in due:\n",
        new="                    for src, dst, payload, bits in reversed(due):\n",
        killers=(
            "tests/test_sim.py::"
            "test_async_tick_runs_starts_from_the_highest_id_then_deliveries_in_send_order",
        ),
        source="the async ring: only the identity digests pinned the order within a tick",
    ),
    Mutant(
        name="deadline-window-unchecked",
        file="src/distheap/sim.py",
        old="""\
            if not 0 < deadline - self.time <= ASYNC_DELAY_MAX:
                raise SimulationFault(f"deadline {deadline} is outside the window at {self.time}")
""",
        new="",
        killers=("tests/test_sim.py::test_async_deadline_outside_the_window_is_a_fault",),
        source="the async ring files a deadline at deadline % (ASYNC_DELAY_MAX + 1)",
    ),
    Mutant(
        name="schedule-left-set-after-fault",
        file="src/distheap/sim.py",
        old="""\
        finally:
            self._sched_rng = None
        return picks
""",
        new="""\
        finally:
            pass
        self._sched_rng = None
        return picks
""",
        killers=("tests/test_sim.py::test_a_failed_async_run_leaves_no_schedule_behind",),
        source="a stalled async run left its schedule set: later sends went to its dead queue",
    ),
    Mutant(
        name="inline-int-drops-sign-bit",
        file="src/distheap/node.py",
        old='''    "int": ("type(v) is int", "(2 if -2 < v < 2 else v.bit_length()) + 1"),\n''',
        new='''    "int": ("type(v) is int", "(2 if -2 < v < 2 else v.bit_length())"),\n''',
        killers=("tests/test_sim.py::test_int_value_is_sized_by_the_int_rule",),
        source="the size rule evaluated inline: a built sizer's int fast path",
    ),
    Mutant(
        name="inline-nat-accepts-negative",
        file="src/distheap/sim.py",
        old="            ((2 if 2 > p else p).bit_length() if p >= 0 else nat_bits(p))\n",
        new="            (2 if 2 > p else p).bit_length()\n",
        killers=("tests/test_sim.py::test_inline_bits_negative_natural_is_a_fault",),
        source="the size rule evaluated inline: Element.bits must keep the negative fault",
    ),
    Mutant(
        name="decompose-pads-short-parts",
        file="src/distheap/batches.py",
        old="""\
            if j >= len(part.entries):  # no receiver reads a share past its batch
                continue
""",
        new="""\
            if j >= len(part.entries):
                shares.append(EntryShare((), (), ins_off, del_off))
                continue
""",
        killers=(
            "tests/test_batches.py::test_decompose_carries_bases_and_running_offsets",
            "tests/test_batches.py::test_decompose_all_zero_subbatch_gets_empty_share",
        ),
        source="messages carry only what their receivers read: the unread all-None tail",
    ),
    Mutant(
        name="decompose-start-skips-a-part",
        file="src/distheap/batches.py",
        old="            cursor = tuple(map(add, cursor, counts))\n",
        new="",
        killers=(
            "tests/test_batches.py::test_decompose_down_a_batch_tree_tiles_the_anchors_positions",
            "tests/test_batches.py::test_decompose_worked_example",
        ),
        source="shares carry only starts: the next part's start skips past this part's count",
    ),
    Mutant(
        name="bottoms-derived-from-the-parent-count",
        file="src/distheap/batches.py",
        old="            need = d  # what the runs leave unmatched is this part's bottoms\n",
        new="            need = sum(p.entries[j][1] for p in parts if j < len(p.entries))\n",
        killers=(
            "tests/test_batches.py::test_decompose_down_a_batch_tree_tiles_the_anchors_positions",
            "tests/test_batches.py::test_decompose_worked_example",
        ),
        source="shares carry no bottoms: a part's runs, and so its bottoms, follow its own count",
    ),
    Mutant(
        name="decompose-skips-the-length-check",
        file="src/distheap/batches.py",
        old="""\
    if len(share) != length:
        raise SimulationFault("share length does not match the parts' combined batch")
""",
        new="",
        killers=("tests/test_batches.py::test_decompose_mismatch_is_fault",),
        source="shares carry no bottoms: an entry no part reads is caught by the share's length",
    ),
    Mutant(
        name="slot-key-rebuilt-from-the-wrong-interval",
        file="src/distheap/kselect.py",
        old="        slot_key = msg.key + (msg.i, msg.lo, msg.hi)\n",
        new="        slot_key = msg.key + (msg.i, msg.lo, msg.lo)\n",
        killers=("tests/test_kselect.py::test_extremes_and_middle",),
        source="messages carry only what their receivers read: a copy slot named by naturals",
    ),
    Mutant(
        name="phase1-runs-on-after-nothing-below",
        file="src/distheap/kselect.py",
        old="            if N <= threshold or not below:\n",
        new="            if N <= threshold or not below + above:\n",
        killers=(
            "tests/test_kselect.py::"
            "test_a_rank_n_selection_among_n_squared_floods_one_k1_and_one_k1p",
            "tests/test_kselect.py::test_phase1_stops_after_a_cut_that_prunes_nothing",
        ),
        source="phase 1 ends at a cut that prunes nothing below: the next would repeat it",
    ),
    Mutant(
        name="k1p-skipped-with-a-finite-upper-bound",
        file="src/distheap/kselect.py",
        old="            if k // n <= 1 and hi == POS_INF:\n",
        new="            if k // n <= 1:\n",
        killers=(
            "tests/test_kselect.py::"
            "test_a_rank_n_selection_among_n_squared_floods_one_k1_and_one_k1p",
        ),
        source="the anchor skips k1p only when neither side can cut; the answer stays right",
    ),
    Mutant(
        name="stored-elements-removed-by-prefix",
        file="src/distheap/skeap_plus.py",
        old="""\
        moved = set(map(id, qual))
        self.elements = [e for e in self.elements if id(e) not in moved]
""",
        new="""\
        self.elements = self.elements[len(qual):]
""",
        killers=(
            "tests/test_skeap_plus.py::test_a_move_takes_out_exactly_the_qualifying_elements",
        ),
        source="one element store: the move takes out what the fq flood counted",
    ),
    Mutant(
        name="store-acked-to-the-storing-node",
        file="src/distheap/skeap_plus.py",
        old="        self.post(element.origin, StoreAckMsg(op.epoch))\n",
        new="        self.post(self.id, StoreAckMsg(op.epoch))\n",
        killers=("tests/test_node.py::test_seap_acknowledges_exactly_its_remote_element_puts",),
        source="one element store: a store is acknowledged to the element's origin, its issuer",
    ),
)


def check(root: Path) -> None:
    """Raise ``ValueError`` unless every mutant applies to the tree at
    ``root`` and names only killers outside the identity files."""
    names = [m.name for m in CATALOG]
    if len(set(names)) != len(names):
        raise ValueError("two mutants share a name")
    for m in CATALOG:
        found = (root / m.file).read_text().count(m.old)
        if found != 1:
            raise ValueError(f"{m.name}: its old text occurs {found} times in {m.file}")
        if not m.killers:
            raise ValueError(f"{m.name}: names no killer")
        for killer in m.killers:
            path, _, test = killer.partition("::")
            if path in IDENTITY_FILES:
                raise ValueError(f"{m.name}: {killer} is in an identity file")
            if f"def {test.split('[')[0]}(" not in (root / path).read_text():
                raise ValueError(f"{m.name}: {killer} does not exist")


def apply(m: Mutant, root: Path) -> None:
    """Write mutant ``m`` into the tree at ``root``."""
    path = root / m.file
    path.write_text(path.read_text().replace(m.old, m.new, 1))
