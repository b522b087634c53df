"""The fuzz fleet: hard-spot grammar presets, the server-path fuzz driver,
the wire-level fuzzer, and the client wait/timeout fixes.

The acceptance bar (see docs/testing.md, "The fuzz fleet"):

* every preset generates programs that stay sound under the differential
  oracle, and the features default *off* so historical seeds render
  byte-identically;
* the server path reproduces the direct facade bit for bit;
* every malformed wire request yields a 4xx ``ServerError`` envelope —
  never a 500, a hang, or a raw HTML error page.
"""

import hashlib
import json
import os

import pytest

from repro.annotations import AnnotationSet, parse_annotations
from repro.server.http import AnalysisServer
from repro.server.client import ClientError, RemoteError, ServerClient
from repro.testing import (
    DifferentialOracle,
    FeatureMix,
    OracleConfig,
    Shrinker,
    check_case,
    default_presets,
    generate_case,
    render_case,
    run_fuzz,
    run_wire_fuzz,
)
from repro.testing.corpus import annotations_to_text, case_payload, load_case
from repro.testing.fuzz import _WireRequest, _exchange
from repro.testing.generator import (
    GeneratedCase,
    GFunction,
    GlobalVar,
    SAssign,
    SFnPtrCall,
    SGotoLoop,
)
from repro.wcet.analyzer import AnalysisOptions

_FAST = OracleConfig(max_input_vectors=2)

#: SHA-256 over the rendered sources of seeds 1..20 with the default mix.
#: The hard-spot grammar features are opt-in: turning them OFF must keep
#: every historical seed byte-identical (CI smoke baselines,
#: PINNED_SEED_BOUNDS and FAST_SEEDS all depend on this).
_LEGACY_DIGEST = "1fd61ca1cfac9488"


def _mix_sources(mix, seeds):
    cases = [generate_case(seed, mix=mix) for seed in seeds]
    return cases, [render_case(case) for case in cases]


# --------------------------------------------------------------------------- #
# Grammar presets: the generator's new hard-spot regions
# --------------------------------------------------------------------------- #
class TestGrammarPresets:
    def test_features_default_off_keeps_legacy_seeds_identical(self):
        digest = hashlib.sha256()
        for seed in range(1, 21):
            digest.update(render_case(generate_case(seed)).source.encode())
        assert digest.hexdigest()[:16] == _LEGACY_DIGEST

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_recursion_mix_is_sound(self, seed):
        mix = FeatureMix(allow_recursion=True)
        case = generate_case(seed, mix=mix)
        rendered = render_case(case)
        assert rendered.annotations.recursion_bounds, "preset must emit recursion"
        result = check_case(case, _FAST)
        assert result.ok, f"seed {seed}: {[str(v) for v in result.violations]}"

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_goto_loop_mix_is_sound(self, seed):
        mix = FeatureMix(allow_goto_loops=True, p_goto_loop=0.5)
        case = generate_case(seed, mix=mix)
        result = check_case(case, _FAST)
        assert result.ok, f"seed {seed}: {[str(v) for v in result.violations]}"

    def test_goto_loop_mix_reaches_irreducible_shape(self):
        mix = FeatureMix(allow_goto_loops=True, p_goto_loop=0.5)
        _, rendered = _mix_sources(mix, range(1, 11))
        assert any("goto" in r.source for r in rendered)

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_fnptr_mix_is_sound_with_calltargets(self, seed):
        mix = FeatureMix(allow_function_pointers=True, p_fnptr_call=0.5)
        case = generate_case(seed, mix=mix)
        rendered = render_case(case)
        if "()" in rendered.source and "fp" in rendered.source:
            assert rendered.annotations.control_flow_hints.indirect_call_targets
        result = check_case(case, _FAST)
        assert result.ok, f"seed {seed}: {[str(v) for v in result.violations]}"

    @pytest.mark.parametrize("seed", (1, 5, 9, 13))
    def test_combined_mix_is_sound(self, seed):
        mix = FeatureMix(
            allow_recursion=True,
            allow_goto_loops=True,
            allow_function_pointers=True,
            p_goto_loop=0.3,
            p_fnptr_call=0.3,
        )
        result = check_case(generate_case(seed, mix=mix), _FAST)
        assert result.ok, f"seed {seed}: {[str(v) for v in result.violations]}"

    def test_context_cap_options_stay_sound_and_conservative(self):
        """A tight context cap merges call contexts — bounds may widen but
        must stay sound and never tighten below the default analysis."""
        capped = OracleConfig(
            max_input_vectors=2,
            analysis_options=AnalysisOptions(max_contexts_per_function=1),
        )
        default_oracle = DifferentialOracle(_FAST)
        capped_oracle = DifferentialOracle(capped)
        for seed in range(1, 7):
            case = generate_case(seed)
            base = default_oracle.check(case)
            tight = capped_oracle.check(case)
            assert tight.ok, f"seed {seed}: {[str(v) for v in tight.violations]}"
            assert tight.wcet_cycles >= base.wcet_cycles
            assert tight.bcet_cycles <= base.bcet_cycles

    def test_recursion_reports_are_stable_across_cache_reuse(self, tmp_path):
        """Recursion-cycle members are excluded from the summary cache; a
        second run over a warm store must reproduce the cold bounds."""
        mix = FeatureMix(allow_recursion=True)
        config = OracleConfig(max_input_vectors=2, cache_dir=str(tmp_path))
        case = generate_case(3, mix=mix)
        cold = DifferentialOracle(config).check(case)
        warm = DifferentialOracle(config).check(case)
        assert cold.ok and warm.ok
        assert (cold.wcet_cycles, cold.bcet_cycles) == (
            warm.wcet_cycles,
            warm.bcet_cycles,
        )


# --------------------------------------------------------------------------- #
# Shrinker support for the new statement forms
# --------------------------------------------------------------------------- #
def _known_bad_goto_case() -> GeneratedCase:
    """A goto loop whose annotation understates the real trip count."""
    case = GeneratedCase(name="known-bad-goto", seed=0)
    case.globals_.append(GlobalVar("in0", is_input=True))
    main = GFunction(name="main", params=[])
    main.locals_ = [("v0", "1"), ("c0", "0"), ("acc", "0")]
    main.body = [
        SGotoLoop(
            uid=0, var="c0", bound=8,
            body=[SAssign("acc", "acc + v0")], annotate=2,
        ),
        SAssign("acc", "acc + 1"),
    ]
    main.return_expr = "acc"
    case.functions.append(main)
    return case


class TestShrinkerNewStatements:
    def test_known_bad_goto_loop_violates(self):
        result = check_case(_known_bad_goto_case(), _FAST)
        assert not result.ok
        assert "wcet-undercut" in result.violation_kinds()

    def test_shrinker_minimises_goto_loop_keeping_the_cycle(self):
        shrunk = Shrinker(_FAST, max_checks=200).shrink(_known_bad_goto_case())
        assert not shrunk.result.ok
        assert "wcet-undercut" in shrunk.result.violation_kinds()
        assert shrunk.line_count <= 14, render_case(shrunk.case).source
        assert "goto" in render_case(shrunk.case).source

    def test_shrinker_offers_fnptr_alternate_drop(self):
        case = GeneratedCase(name="fnptr-cand", seed=0)
        handler = GFunction(name="h0", params=[], locals_=[("t", "2")],
                            body=[SAssign("t", "t * 2")], return_expr="t")
        main = GFunction(name="main", params=[])
        main.locals_ = [("v0", "1")]
        main.body = [
            SFnPtrCall(uid=0, primary="h0", lhs="v0", alternate="h0", cond="v0 > 0")
        ]
        main.return_expr = "v0"
        case.functions.extend([handler, main])
        shrinker = Shrinker(_FAST)
        drops = [
            candidate
            for candidate in shrinker._shorten_loops(case)
            if isinstance(candidate.functions[1].body[0], SFnPtrCall)
            and candidate.functions[1].body[0].alternate is None
        ]
        assert drops, "shrinker must offer dropping the alternate target"


# --------------------------------------------------------------------------- #
# Corpus round-trip for the new annotation kinds
# --------------------------------------------------------------------------- #
class TestCorpusRoundTrip:
    def test_annotations_to_text_covers_recursion_and_calltargets(self):
        annotations = AnnotationSet()
        annotations.add_loop_bound("main", "top", 5)
        annotations.add_argument_range("f0", "r3", -4, 9)
        annotations.add_recursion_bound("rc0", 3)
        annotations.add_call_targets(0x1040, ("h0", "h1"))
        lines = annotations_to_text(annotations)
        parsed = parse_annotations("\n".join(lines))
        assert parsed.loop_bounds == annotations.loop_bounds
        assert parsed.argument_ranges == annotations.argument_ranges
        assert parsed.recursion_bounds == annotations.recursion_bounds
        assert (
            parsed.control_flow_hints.indirect_call_targets
            == annotations.control_flow_hints.indirect_call_targets
        )

    def test_generated_hard_spot_case_survives_corpus_io(self, tmp_path):
        """A fnptr+recursion case written as corpus JSON replays soundly."""
        mix = FeatureMix(
            allow_recursion=True, allow_function_pointers=True, p_fnptr_call=0.5
        )
        case = next(
            c
            for c in (generate_case(seed, mix=mix) for seed in range(1, 30))
            if render_case(c).annotations.control_flow_hints.indirect_call_targets
            and render_case(c).annotations.recursion_bounds
        )
        payload = case_payload(case, "round-trip fixture")
        path = tmp_path / f"{payload['name']}.json"
        path.write_text(json.dumps(payload))
        loaded = load_case(str(path))
        original = render_case(case).annotations
        replayed = loaded.rendered().annotations
        assert replayed.recursion_bounds == original.recursion_bounds
        assert (
            replayed.control_flow_hints.indirect_call_targets
            == original.control_flow_hints.indirect_call_targets
        )
        result = check_case(loaded, _FAST)
        assert result.ok, [str(v) for v in result.violations]


# --------------------------------------------------------------------------- #
# Client fixes: explicit zero timeout, wait backoff/deadline semantics
# --------------------------------------------------------------------------- #
class _Status:
    def __init__(self, state):
        self.state = state


class TestClientFixes:
    def test_call_passes_explicit_zero_timeout(self, monkeypatch):
        seen = []

        class _Response:
            status = 200
            headers = {}

            def read(self):
                return b"{}"

        class _Connection:
            sock = None

            def __init__(self, host, port, timeout=None):
                self.timeout = timeout

            def request(self, method, url, body=None, headers=None):
                seen.append(self.timeout)

            def getresponse(self):
                return _Response()

        monkeypatch.setattr("http.client.HTTPConnection", _Connection)
        client = ServerClient("http://127.0.0.1:1", timeout=30.0)
        client._call("GET", "/healthz", timeout=0.0)
        assert seen == [0.0], "timeout=0 must not fall back to default"
        client._call("GET", "/healthz")
        assert seen == [0.0, 30.0]

    def test_wait_raises_after_consecutive_stream_failures(self, monkeypatch):
        pauses = []
        monkeypatch.setattr("time.sleep", pauses.append)

        class _FlakyClient(ServerClient):
            def status(self, job_id, wait=None):
                raise ClientError("poll torn")

        client = _FlakyClient("http://127.0.0.1:1")
        with pytest.raises(ClientError, match="poll torn"):
            client.wait("job-1")
        # MAX_WAIT_FAILURES-1 retries sleep with doubling capped backoff,
        # jittered into [0.5x, 1.0x) to decorrelate synchronized clients.
        assert len(pauses) == ServerClient.MAX_WAIT_FAILURES - 1
        assert ServerClient.WAIT_BACKOFF_MIN / 2 <= pauses[0] < ServerClient.WAIT_BACKOFF_MIN
        assert all(b < ServerClient.WAIT_BACKOFF_MAX for b in pauses)
        # The pre-jitter schedule doubles: the second pause draws from a
        # window strictly above the first window's midpoint ceiling.
        assert ServerClient.WAIT_BACKOFF_MIN <= pauses[1] < ServerClient.WAIT_BACKOFF_MIN * 2

    def test_wait_checks_deadline_before_first_poll(self):
        calls = []

        class _CountingClient(ServerClient):
            def status(self, job_id, wait=None):
                calls.append(job_id)
                return _Status("running")

        client = _CountingClient("http://127.0.0.1:1")
        with pytest.raises(ClientError, match="timed out"):
            client.wait("job-1", timeout=0.0)
        assert calls == [], "an expired deadline must not trigger a poll"

    def test_wait_returns_terminal_status_without_streaming(self):
        class _DoneClient(ServerClient):
            def status(self, job_id, wait=None):
                return _Status("done")

            def events(self, job_id, since=0):  # pragma: no cover - must not run
                raise AssertionError("no stream needed for a terminal job")

        assert _DoneClient("http://127.0.0.1:1").wait("job-1").state == "done"

    def test_wait_long_polls_and_paces_early_answers(self, monkeypatch):
        """Each poll asks the server to hold its reply; a "not yet" that
        comes back at once (a server that ignores ``wait``) is paced by the
        backoff instead of spinning."""
        pauses, holds = [], []
        monkeypatch.setattr("time.sleep", pauses.append)

        class _ImpatientClient(ServerClient):
            def status(self, job_id, wait=None):
                holds.append(wait)
                return _Status("done" if len(holds) == 4 else "running")

        assert _ImpatientClient("http://127.0.0.1:1").wait("job-1").state == "done"
        assert holds == [ServerClient.POLL_WAIT] * 4
        assert len(pauses) == 3
        assert ServerClient.WAIT_BACKOFF_MIN <= pauses[1] < ServerClient.WAIT_BACKOFF_MIN * 2

    def test_wait_raises_a_client_error_reply_at_once(self, monkeypatch):
        """A 4xx other than 429 (say, an unknown job) cannot heal: no retry."""
        from repro.server.wire import ServerError

        pauses = []
        monkeypatch.setattr("time.sleep", pauses.append)

        class _GoneClient(ServerClient):
            def status(self, job_id, wait=None):
                raise RemoteError(404, ServerError(error="UnknownJob", message=job_id))

        with pytest.raises(RemoteError) as info:
            _GoneClient("http://127.0.0.1:1").wait("job-1")
        assert info.value.status == 404
        assert pauses == []


# --------------------------------------------------------------------------- #
# Wire fuzzing: every malformed request yields a 4xx envelope
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="class")
def live_server():
    with AnalysisServer(port=0, jobs=1) as server:
        yield server


class TestWireFuzz:
    def test_wire_fuzzer_reports_zero_mishandled_requests(self, live_server):
        summary = run_wire_fuzz(live_server.url, iterations=150, seed=3)
        assert summary.ok, [str(v) for v in summary.violations]
        assert len(summary.by_strategy) >= 10, "rotation must cover strategies"

    @pytest.mark.parametrize(
        "request_",
        [
            _WireRequest(method="GET", path="/v1/jobs/x/events?since=abc"),
            _WireRequest(body=b'{"schema": 1, "kind": "\xff\xfe"}'),
            _WireRequest(body=b""),
            _WireRequest(body=b"[]"),
            _WireRequest(method="DELETE", path="/v1/jobs", body=b"{}"),
            _WireRequest(
                body=b"",
                raw_headers=[("Content-Type", "application/json"),
                             ("Content-Length", "banana")],
            ),
            _WireRequest(
                body=b"",
                raw_headers=[("Content-Type", "application/json"),
                             ("Content-Length", "-7")],
            ),
            # Kept-alive replies whose request body used to be left unread
            # (``_exchange`` probes the connection afterwards).
            _WireRequest(method="POST", path="/v1/nope", body=b"{}"),
            _WireRequest(method="POST", path="/v1/jobs/missing/cancel", body=b"{}"),
            _WireRequest(method="GET", path="/v1/jobs/missing?wait=abc"),
        ],
        ids=[
            "bad-since", "invalid-utf8", "empty-body", "non-object",
            "bad-method", "content-length-nan", "content-length-negative",
            "unknown-post-path", "cancel-unknown-job", "bad-wait",
        ],
    )
    def test_known_regressions_return_4xx_envelopes(self, live_server, request_):
        from repro.api import serialize
        from repro.server.wire import ServerError

        status, body = _exchange(
            live_server.host, live_server.port, request_, timeout=15.0
        )
        assert 400 <= status < 500, (status, body)
        error = serialize.from_json(json.loads(body), ServerError)
        assert error.error and error.message

    def test_type_garbage_project_spec_is_rejected_with_400(self, live_server):
        from repro.api import serialize
        from repro.api.service import AnalysisRequest
        from repro.server.wire import ProjectSpec, ServerSubmit

        payload = serialize.to_json(
            ServerSubmit(
                project=ProjectSpec(source="int main(void) { return 0; }"),
                request=AnalysisRequest(),
                lane="batch",
            )
        )
        payload["project"]["workload"] = 123
        payload["project"]["source"] = None
        with pytest.raises(RemoteError) as info:
            ServerClient(live_server.url)._call("POST", "/v1/jobs", payload)
        assert info.value.status == 400


# --------------------------------------------------------------------------- #
# The fuzz driver end to end (small programs budget; CI runs the big sweep)
# --------------------------------------------------------------------------- #
class TestFuzzDriver:
    def test_fuzz_smoke_is_clean_and_covers_presets(self, tmp_path):
        summary = run_fuzz(
            programs=6,
            jobs=1,
            base_seed=1,
            inputs=2,
            wire_iterations=40,
            corpus_dir=str(tmp_path),
        )
        assert summary.ok, summary.to_json()
        assert summary.total_runs > 0
        assert sorted(summary.preset_counts) == sorted(
            preset.name for preset in default_presets()
        )
        assert summary.wire is not None and summary.wire.ok
        assert not list(tmp_path.iterdir()), "clean run must file no seeds"
        payload = summary.to_json()
        assert payload["kind"] == "FuzzSummary" and payload["ok"] is True

    @pytest.mark.parametrize("jobs", ["1", "0"])
    def test_chaos_runs_at_every_jobs_value(self, monkeypatch, jobs):
        """``--chaos`` drives the supervised pool at every ``--jobs`` value;
        ``0`` reaches the sweep as one worker per CPU.  The sweep itself is
        stubbed: CI's chaos smoke runs it live."""
        from repro.api.cli import main as cli_main
        from repro.testing import fuzz

        seen = {}

        def fake_run_chaos(jobs_total, workers, **knobs):
            seen["workers"] = workers
            return fuzz.ChaosSummary(jobs=jobs_total, seed=knobs["seed"], workers=workers)

        monkeypatch.setattr(fuzz, "run_chaos", fake_run_chaos)
        status = cli_main(["fuzz", "--chaos", "--chaos-jobs", "2", "--jobs", jobs])
        assert status == 0
        assert seen["workers"] == (1 if jobs == "1" else len(os.sched_getaffinity(0)))
