"""Tests for the compact binary trace format (trace_io version 2)."""

import io
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.bytecode_wm import WatermarkKey
from repro.pipeline import prepare
from repro.serve.store import ArtifactStore, StoreError
from repro.vm import (
    BinaryTraceWriter,
    BranchEvent,
    SiteKey,
    Trace,
    TraceFormatError,
    TracePoint,
    dump_trace,
    dump_trace_binary,
    load_trace,
    load_trace_binary,
    run_module,
)
from repro.workloads import collatz_module, gcd_module

from tests.v1_artifacts import v1_artifact

KEY = WatermarkKey(secret=b"pldi-2004", inputs=[25, 10])


def _traced(module, inputs, mode="full"):
    return run_module(module, inputs, trace_mode=mode).trace


def _binary_bytes(trace, module):
    buf = io.BytesIO()
    dump_trace_binary(trace, module, buf)
    return buf.getvalue()


def _json_text(trace, module):
    buf = io.StringIO()
    dump_trace(trace, module, buf)
    return buf.getvalue()


class TestRoundTrip:
    def test_equivalent_to_json_round_trip(self):
        module = gcd_module()
        trace = _traced(module, [252, 105])
        via_binary = load_trace_binary(
            io.BytesIO(_binary_bytes(trace, module)), module
        )
        via_json = load_trace(io.StringIO(_json_text(trace, module)), module)
        assert via_binary.points == via_json.points == trace.points
        assert len(via_binary.branches) == len(trace.branches)
        for a, b, c in zip(
            via_binary.branches, via_json.branches, trace.branches
        ):
            assert a.branch is b.branch is c.branch
            assert a.follower is b.follower is c.follower
            assert a.taken == b.taken == c.taken

    def test_branch_only_trace(self):
        module = collatz_module()
        trace = _traced(module, [27], mode="branch")
        assert not trace.points
        loaded = load_trace_binary(
            io.BytesIO(_binary_bytes(trace, module)), module
        )
        assert _json_text(loaded, module) == _json_text(trace, module)

    def test_binary_is_much_smaller_than_json(self):
        module = gcd_module()
        trace = _traced(module, [2**63 - 1, 105])
        binary = _binary_bytes(trace, module)
        assert len(binary) < len(_json_text(trace, module).encode()) / 2

    def test_negative_and_large_values_survive(self):
        trace = Trace()
        extremes = (0, -1, 1, -(2**63), 2**63 - 1, 12345, -98765)
        trace.points.append(
            TracePoint(SiteKey("f", "<entry>"), extremes, (-7,))
        )
        module = gcd_module()
        loaded = load_trace_binary(
            io.BytesIO(_binary_bytes(trace, module)), module
        )
        assert loaded.points[0].locals_snapshot == extremes
        assert loaded.points[0].globals_snapshot == (-7,)

    def test_run_length_encoding_compresses_repeats(self):
        module = gcd_module()
        trace = _traced(module, [252, 105], mode="branch")
        event = trace.branches[0]
        repeated = Trace(branches=[event] * 10_000)
        short = Trace(branches=[event])
        grown = len(_binary_bytes(repeated, module)) - len(
            _binary_bytes(short, module)
        )
        assert grown < 8  # one BRANCH_RUN record, not 10k records
        loaded = load_trace_binary(
            io.BytesIO(_binary_bytes(repeated, module)), module
        )
        assert len(loaded.branches) == 10_000
        assert all(e.branch is event.branch for e in loaded.branches)


class TestStreamingWriter:
    def test_interleaved_writes_and_context_manager(self):
        module = gcd_module()
        trace = _traced(module, [252, 105])
        buf = io.BytesIO()
        with BinaryTraceWriter(buf, module) as writer:
            # Feed records in execution-ish interleaving, not grouped.
            points = iter(trace.points)
            for event in trace.branches:
                writer.write_branch(event)
                point = next(points, None)
                if point is not None:
                    writer.write_point(point)
            for point in points:
                writer.write_point(point)
        loaded = load_trace_binary(io.BytesIO(buf.getvalue()), module)
        assert loaded.points == trace.points
        assert len(loaded.branches) == len(trace.branches)

    def test_unclosed_stream_is_unreadable(self):
        module = gcd_module()
        trace = _traced(module, [252, 105])
        buf = io.BytesIO()
        writer = BinaryTraceWriter(buf, module)
        for point in trace.points:
            writer.write_point(point)
        # No close(): the END marker is missing by construction.
        with pytest.raises(TraceFormatError, match="truncated"):
            load_trace_binary(io.BytesIO(buf.getvalue()), module)

    def test_foreign_instruction_rejected_at_write_time(self):
        module = gcd_module()
        other = collatz_module()
        trace = _traced(other, [27], mode="branch")
        with pytest.raises(TraceFormatError, match="not present"):
            _binary_bytes(trace, module)


class TestCorruption:
    def _good_stream(self):
        module = gcd_module()
        trace = _traced(module, [252, 105])
        return _binary_bytes(trace, module), module

    def test_truncation_always_detected(self):
        data, module = self._good_stream()
        # Every proper prefix must fail loudly, never return short data.
        for cut in range(0, len(data), max(1, len(data) // 97)):
            with pytest.raises(TraceFormatError):
                load_trace_binary(io.BytesIO(data[:cut]), module)

    def test_bad_magic_rejected(self):
        data, module = self._good_stream()
        with pytest.raises(TraceFormatError, match="magic"):
            load_trace_binary(io.BytesIO(b"NOPE" + data[4:]), module)

    def test_unsupported_version_rejected(self):
        data, module = self._good_stream()
        mangled = data[:4] + bytes([99]) + data[5:]
        with pytest.raises(TraceFormatError, match="version"):
            load_trace_binary(io.BytesIO(mangled), module)

    def test_unknown_record_tag_rejected(self):
        data, module = self._good_stream()
        mangled = data[:5] + b"\x6f" + data[5:]
        with pytest.raises(TraceFormatError, match="unknown record tag"):
            load_trace_binary(io.BytesIO(mangled), module)

    def test_dangling_ids_rejected(self):
        module = gcd_module()
        header = b"WVMT\x02"
        # BRANCH referencing edge id 0 with no DEF_EDGE record.
        with pytest.raises(TraceFormatError, match="undefined edge"):
            load_trace_binary(io.BytesIO(header + b"\x04\x00\x7f"), module)
        # POINT referencing string id 0 with no DEF_STR record.
        with pytest.raises(TraceFormatError, match="undefined string"):
            load_trace_binary(
                io.BytesIO(header + b"\x02\x00\x00\x00\x00\x7f"), module
            )

    def test_module_mismatch_rejected(self):
        module = gcd_module()
        trace = _traced(module, [252, 105])
        data = _binary_bytes(trace, module)
        with pytest.raises(TraceFormatError, match="missing instruction"):
            load_trace_binary(io.BytesIO(data), collatz_module())


class TestPropertyRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                st.text(min_size=1, max_size=8),
                st.text(min_size=1, max_size=8),
                st.lists(
                    st.integers(-(2**63), 2**63 - 1), max_size=4
                ),
                st.lists(
                    st.integers(-(2**63), 2**63 - 1), max_size=3
                ),
            ),
            max_size=20,
        ),
        branch_picks=st.lists(
            st.tuples(
                st.integers(0, 10**6), st.integers(0, 10**6), st.booleans()
            ),
            max_size=30,
        ),
    )
    def test_arbitrary_traces_round_trip(self, points, branch_picks):
        module = gcd_module()
        instrs = [
            i for fn in module.functions.values() for i in fn.code
        ]
        trace = Trace()
        for fn_name, site, locs, globs in points:
            trace.points.append(
                TracePoint(
                    SiteKey(fn_name, site), tuple(locs), tuple(globs)
                )
            )
        for b_pick, f_pick, taken in branch_picks:
            trace.branches.append(
                BranchEvent(
                    instrs[b_pick % len(instrs)],
                    instrs[f_pick % len(instrs)],
                    taken,
                )
            )
        loaded = load_trace_binary(
            io.BytesIO(_binary_bytes(trace, module)), module
        )
        assert loaded.points == trace.points
        assert [(id(e.branch), id(e.follower), e.taken) for e in loaded.branches] == [
            (id(e.branch), id(e.follower), e.taken) for e in trace.branches
        ]


class TestPreparedProgramBackcompat:
    """Artifacts carry no trace. A version-1 artifact carried it as a
    binary blob; the store refuses every version-1 blob on its format
    version, whatever its trace field holds, and never decodes it."""

    @staticmethod
    def _refused(tmp_path, old):
        store = ArtifactStore(str(tmp_path / "store"))
        digest = store.put(old).digest
        with pytest.raises(StoreError, match="format version"):
            store.load(digest)
        assert [q.reason for q in store.quarantined()] == [
            "unsupported format version"
        ]

    def test_pickle_stores_binary_blob(self):
        # The binary blob left the artifact together with the trace.
        prep = prepare(gcd_module(), KEY, 16)
        data = pickle.dumps(prep)
        assert b"WVMT" in pickle.dumps(v1_artifact(prep))
        assert b"WVMT" not in data
        assert "trace" not in vars(pickle.loads(data))

    def test_pickle_round_trip_rebinds_trace(self):
        # What replaced the trace, the site table, round-trips intact
        # and names functions of the artifact's own module.
        prep = prepare(gcd_module(), KEY, 16)
        clone = pickle.loads(pickle.dumps(prep))
        assert clone.sites == prep.sites
        assert all(site.function in clone.module.functions
                   for site in clone.sites)

    def test_object_graph_trace_state_is_refused(self, tmp_path):
        prep = prepare(gcd_module(), KEY, 16)
        trace = run_module(prep.module, KEY.inputs, trace_mode="full").trace
        self._refused(tmp_path, v1_artifact(prep, trace=trace))

    def test_corrupt_blob_raises_prepare_error(self, tmp_path):
        prep = prepare(gcd_module(), KEY, 16)
        old = v1_artifact(prep)
        old.trace = old.trace[:-3]
        self._refused(tmp_path, old)

    def test_unrecognisable_trace_field_raises_prepare_error(self, tmp_path):
        prep = prepare(gcd_module(), KEY, 16)
        self._refused(tmp_path, v1_artifact(prep, trace=12345))
