"""The lamc CLI driver."""

import io
import json

import pytest

from repro.tools.lamc import main

GOOD = """
class Box { v }
method main() {
entry:
  new b, Box
  const x, 21
  putfield b, v, x
  getfield y, b, v
  binop z, add, y, y
  ret z
}
"""

BAD_SYNTAX = "method main() {\nentry:\n frobnicate x\n}"
BAD_VERIFY = "method main() {\nentry:\n  print ghost\n  ret\n}"


@pytest.fixture()
def good_file(tmp_path):
    path = tmp_path / "good.ir"
    path.write_text(GOOD)
    return str(path)


def run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCompile:
    def test_reports_pipeline_and_barriers(self, good_file):
        code, text = run_cli("compile", good_file, "--config", "dynamic")
        assert code == 0
        assert "insert-dynamic-barriers" in text
        assert "barriers: 3 inserted" in text

    def test_dump_prints_program(self, good_file):
        code, text = run_cli("compile", good_file, "--dump")
        assert code == 0
        assert "method main()" in text and "allocbar" in text

    def test_no_elim_flag(self, good_file):
        _, with_elim = run_cli("compile", good_file)
        _, without = run_cli("compile", good_file, "--no-elim")
        assert "0 removed" in without
        assert "0 removed" not in with_elim

    def test_baseline_config_has_no_barriers(self, good_file):
        code, text = run_cli("compile", good_file, "--config", "baseline")
        assert code == 0
        assert "barriers: 0 inserted" in text


class TestRun:
    def test_executes_and_reports_result(self, good_file):
        code, text = run_cli("run", good_file)
        assert code == 0
        assert "result:   42" in text

    def test_custom_entry(self, tmp_path):
        path = tmp_path / "multi.ir"
        path.write_text(
            "method other() {\nentry:\n  const x, 9\n  ret x\n}\n"
            "method main() {\nentry:\n  const x, 1\n  ret x\n}\n"
        )
        code, text = run_cli("run", str(path), "--entry", "other")
        assert code == 0 and "result:   9" in text

    def test_print_output_shown(self, tmp_path):
        path = tmp_path / "p.ir"
        path.write_text(
            "method main() {\nentry:\n  const x, 5\n  print x\n  ret x\n}\n"
        )
        code, text = run_cli("run", str(path))
        assert code == 0 and "output:" in text and "5" in text


class TestVerifyAndDisasm:
    def test_verify_ok(self, good_file):
        code, text = run_cli("verify", good_file)
        assert code == 0 and "ok" in text

    def test_verify_failure_exit_code(self, tmp_path):
        path = tmp_path / "bad.ir"
        path.write_text(BAD_VERIFY)
        code, text = run_cli("verify", str(path))
        assert code == 1 and "ghost" in text

    def test_disasm_round_trips(self, good_file):
        code, text = run_cli("disasm", good_file)
        assert code == 0
        assert "class Box { v }" in text

    def test_syntax_error_exit_code(self, tmp_path):
        path = tmp_path / "syn.ir"
        path.write_text(BAD_SYNTAX)
        code, text = run_cli("compile", str(path))
        assert code == 2 and "syntax error" in text

    def test_missing_file(self):
        code, text = run_cli("compile", "/nonexistent/x.ir")
        assert code == 2 and "error" in text


VIOLATION = """
class Box { v }

region method stomp(pub) secrecy(s) {
entry:
  const x, 1
  putfield pub, v, x
  ret
}

method main() {
entry:
  new pub, Box
  const x, 0
  putfield pub, v, x
  call _, stomp, pub
  ret x
}
"""


class TestLint:
    @pytest.fixture()
    def violation_file(self, tmp_path):
        path = tmp_path / "violation.ir"
        path.write_text(VIOLATION)
        return str(path)

    def test_clean_program_exits_zero(self, good_file):
        code, text = run_cli("lint", good_file)
        assert code == 0
        assert "no findings" in text

    def test_violation_exits_one_with_trace(self, violation_file):
        code, text = run_cli("lint", violation_file)
        assert code == 1
        assert "error[LAM001]" in text
        assert "flow trace:" in text
        assert "stomp" in text

    def test_json_output_is_machine_readable(self, violation_file):
        import json

        code, text = run_cli("lint", violation_file, "--json")
        assert code == 1
        findings = json.loads(text)
        codes = {f["code"] for f in findings}
        assert "LAM001" in codes
        lam001 = next(f for f in findings if f["code"] == "LAM001")
        assert lam001["severity"] == "error"
        assert lam001["trace"], "JSON findings carry the flow trace"

    def test_labeled_statics_flag(self, tmp_path):
        path = tmp_path / "statics.ir"
        path.write_text(
            "method log(x) {\nentry:\n  putstatic sink, x\n  ret\n}\n"
            "region method audit(b) secrecy(s) {\nentry:\n"
            "  const r0, 1\n  call _, log, r0\n  ret\n}\n"
            "method main() {\nentry:\n  const b, 0\n"
            "  call _, audit, b\n  ret b\n}\n"
        )
        code_plain, text_plain = run_cli("lint", str(path))
        code_labeled, text_labeled = run_cli(
            "lint", str(path), "--labeled-statics"
        )
        assert "LAM005" in text_plain
        assert "LAM005" not in text_labeled
        # Warnings only: neither invocation fails the build.
        assert code_plain == 0 and code_labeled == 0

    def test_syntax_error_exit_code(self, tmp_path):
        path = tmp_path / "syn.ir"
        path.write_text(BAD_SYNTAX)
        code, text = run_cli("lint", str(path))
        assert code == 2 and "syntax error" in text


class TestInterprocFlag:
    SOURCE = """
class Box { v }
method bump(b) {
entry:
  getfield r0, b, v
  const one, 1
  binop r1, add, r0, one
  putfield b, v, r1
  ret r1
}
method main() {
entry:
  new b, Box
  const x, 5
  putfield b, v, x
  call r1, bump, b
  call r2, bump, b
  ret r2
}
"""

    @pytest.fixture()
    def chain_file(self, tmp_path):
        path = tmp_path / "chain.ir"
        path.write_text(self.SOURCE)
        return str(path)

    def test_compile_reports_interproc_removals(self, chain_file):
        code, text = run_cli(
            "compile", chain_file, "--interproc", "--no-inline"
        )
        assert code == 0
        assert "interprocedural-barrier-elim" in text
        assert "interprocedural" in text and "removed" in text

    def test_run_agrees_with_intra(self, chain_file):
        code_a, text_a = run_cli("run", chain_file, "--no-inline")
        code_b, text_b = run_cli(
            "run", chain_file, "--interproc", "--no-inline"
        )
        assert code_a == code_b == 0
        result_a = [l for l in text_a.splitlines() if "result:" in l]
        result_b = [l for l in text_b.splitlines() if "result:" in l]
        assert result_a == result_b


class TestVerifyDeep:
    """The `lamc verify` deep pipeline: certificates, races, SARIF."""

    def test_certifies_real_example(self):
        code, text = run_cli("verify", "examples/labeled_pipeline.ir")
        assert code == 0
        assert "LAM009" in text
        assert "certified secure" in text
        assert "ok:" in text

    def test_planted_leak_exits_nonzero(self):
        code, text = run_cli("verify", "tests/fixtures/planted_leak.ir")
        assert code == 1
        assert "LAM007" in text
        assert "label race" in text

    def test_region_write_race_warns(self):
        code, text = run_cli(
            "verify", "tests/fixtures/region_write_race.ir"
        )
        assert code == 0  # warnings only
        assert "LAM008" in text
        assert "0/3 methods certified" in text

    def test_declassifier_launders_lam006(self):
        # Satellite regression: the declassified print stays clean under
        # both lint and verify, and the program still certifies.
        code, text = run_cli("lint", "tests/fixtures/declassify_launder.ir")
        assert code == 0 and "LAM006" not in text
        code, text = run_cli(
            "verify", "tests/fixtures/declassify_launder.ir"
        )
        assert code == 0
        assert "4/4 methods certified" in text

    def test_json_embeds_certificates(self):
        import json as json_mod

        code, text = run_cli(
            "verify", "examples/labeled_pipeline.ir", "--format", "json"
        )
        assert code == 0
        payload = json_mod.loads(text)
        assert set(payload) == {"diagnostics", "certificates", "certified"}
        assert "ingest" in payload["certified"]
        cert = payload["certificates"]["ingest"]
        assert cert["certified"] is True
        assert all(ob["discharged"] for ob in cert["obligations"])
        rules = {ob["rule"] for ob in cert["obligations"]}
        assert "region-fresh" in rules

    def test_verify_front_end_rejection_skips_deep_passes(self, tmp_path):
        path = tmp_path / "bad.ir"
        path.write_text(BAD_VERIFY)
        code, text = run_cli("verify", str(path))
        assert code == 1
        assert "LAM000" in text
        assert "deep analysis skipped" in text


class TestSarif:
    """--format sarif envelopes for lint and verify."""

    def _load(self, text):
        import json as json_mod

        return json_mod.loads(text)

    def test_lint_sarif_envelope(self, violation_file=None):
        code, text = run_cli(
            "lint", "tests/fixtures/secrecy_violation.ir",
            "--format", "sarif",
        )
        assert code == 1
        log = self._load(text)
        assert log["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "lamlint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"LAM000", "LAM006", "LAM007", "LAM009"} <= rule_ids
        assert any(r["ruleId"] == "LAM001" for r in run["results"])
        for result in run["results"]:
            assert result["level"] in ("error", "warning", "note")
            (loc,) = result["locations"]
            assert loc["logicalLocations"][0]["fullyQualifiedName"]
            assert (
                loc["physicalLocation"]["artifactLocation"]["uri"]
                == "tests/fixtures/secrecy_violation.ir"
            )

    def test_verify_sarif_has_race_result_and_code_flow(self):
        code, text = run_cli(
            "verify", "tests/fixtures/label_race.ir", "--format", "sarif",
        )
        assert code == 1
        log = self._load(text)
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "lamverify"
        lam007 = [r for r in run["results"] if r["ruleId"] == "LAM007"]
        assert lam007
        assert lam007[0]["level"] == "error"
        flows = lam007[0]["codeFlows"][0]["threadFlows"][0]["locations"]
        assert len(flows) == 2  # both racing accesses

    def test_clean_sarif_still_carries_rule_table(self, good_file):
        code, text = run_cli("lint", good_file, "--format", "sarif")
        assert code == 0
        log = self._load(text)
        (run,) = log["runs"]
        assert run["results"] == []
        assert len(run["tool"]["driver"]["rules"]) == 10


class TestCertifiedCompile:
    def test_certified_flag_removes_more_than_interproc(self):
        src = "examples/labeled_pipeline.ir"
        code_i, text_i = run_cli("compile", src, "--interproc")
        code_c, text_c = run_cli("compile", src, "--certified")
        assert code_i == code_c == 0
        assert "certified-barrier-elim" in text_c

        def final(text):
            (line,) = [l for l in text.splitlines() if "final" in l]
            return int(line.split(",")[-1].split()[0])

        assert final(text_c) < final(text_i)
        assert "certified: " in text_c

    def test_certified_run_matches_plain(self):
        src = "examples/labeled_pipeline.ir"
        code_a, text_a = run_cli("run", src)
        code_b, text_b = run_cli("run", src, "--certified")
        assert code_a == code_b == 0
        result = lambda t: [l for l in t.splitlines() if "result:" in l]
        assert result(text_a) == result(text_b)


class TestCluster:
    def test_cluster_reports_shards_and_parity(self):
        code, text = run_cli(
            "cluster", "--shards", "3", "--topology", "edge,shuffle",
            "--requests", "24",
        )
        assert code == 0
        assert "3 shards" in text
        assert "[shuffle]" in text
        assert "parity ok" in text
        (line,) = [l for l in text.splitlines() if l.startswith("wire:")]
        assert "binary" in line
        assert "B/req" in line

    def test_cluster_json_summary(self):
        code, text = run_cli(
            "cluster", "--shards", "2", "--requests", "16", "--json"
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["audit_parity"] is True
        assert payload["requests"] == 16
        assert len(payload["shards"]) == 2
        assert sum(s["requests"] for s in payload["shards"]) == 16

    def test_cluster_json_wire_block(self):
        code, text = run_cli(
            "cluster", "--shards", "2", "--requests", "16", "--json",
        )
        assert code == 0
        payload = json.loads(text)
        wire = payload["wire"]
        assert wire["wire"] == "binary"
        assert wire["requests"] == 16
        assert wire["frames"] > 0
        assert wire["bytes_on_wire"] > 0
        assert wire["bytes_per_request"] > 0
        assert "label_dict_hits" in wire
        assert "label_dict_misses" in wire

    def test_cluster_refuses_unroutable_taint(self):
        """A central-only topology cannot hold tainted requests: they are
        refused at the router, and the rest still reach parity."""
        code, text = run_cli(
            "cluster", "--shards", "2", "--topology", "central",
            "--requests", "40", "--tainted", "0.5", "--json",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["refused_at_router"] > 0
        assert payload["requests"] + payload["refused_at_router"] == 40
