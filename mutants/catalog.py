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
        old="            ins_off += n_ins\n",
        new="",
        killers=("tests/test_batches.py::test_decompose_offsets_accumulate",),
        source="ROADMAP item 11's seed catalog",
    ),
    Mutant(
        name="every-put-acknowledged",
        file="src/distheap/node.py",
        old='''\
        if op.token is not None:
            self.post(op.reply_to, PutAckMsg(op.ns, op.token))
''',
        new='''\
        self.post(op.reply_to, PutAckMsg(op.ns, op.token))
''',
        killers=(
            "tests/test_node.py::test_skeap_sends_no_put_ack",
            "tests/test_node.py::test_seap_acknowledges_exactly_its_remote_element_puts",
        ),
        source="CHANGES.md, acks for puts that no protocol reads",
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
