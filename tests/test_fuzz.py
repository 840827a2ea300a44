"""lamfuzz self-checks: generator determinism, the secret-swap oracle
over whole-OS traces, planted-leak negative controls, shrinker
minimality, and the ``lamc fuzz`` CLI contract (exit codes, replay
line, bit-reproducible output)."""

import io

import pytest

from repro.analysis.fuzz import (
    ARMS,
    OP_KINDS,
    FuzzWorld,
    check_trace,
    default_secrets,
    diff_observables,
    fuzz_sweep,
    generate_plan,
    leak_catch_budget,
    normalize_cross_arm,
    public_tree,
    run_forked,
    run_replicated,
    shrink_trace,
)
from repro.core import Label, LabelPair
from repro.osim import Kernel
from repro.osim.lsm import (
    LaminarSecurityModule,
    LeakySecurityModule,
    chain_bakeable_hooks,
)
from repro.tools.lamc import main as lamc_main


def run_lamc(*argv):
    out = io.StringIO()
    code = lamc_main(list(argv), out)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# Generator determinism
# ---------------------------------------------------------------------------


class TestGenerator:
    def test_same_seed_bit_identical(self):
        assert generate_plan(42).serialize() == generate_plan(42).serialize()

    def test_different_seeds_differ(self):
        serialized = {generate_plan(s).serialize() for s in range(12)}
        assert len(serialized) == 12

    def test_truncation_is_a_prefix(self):
        plan = generate_plan(3)
        short = plan.truncated(5)
        assert [op.index for op in short.ops] == [
            op.index for op in plan.ops[:5]
        ]

    def test_every_group_opens_with_probes(self):
        for seed in range(20):
            plan = generate_plan(seed)
            for g in range(plan.group_count):
                kinds = [op.kind for op in plan.ops if op.group == g][:2]
                assert kinds == ["probe_vault", "probe_pipe"]

    def test_vocabulary_reachable(self):
        # A modest sweep must exercise the full op vocabulary.
        report = fuzz_sweep(1000, 60, arms=())
        assert set(report.coverage) == set(OP_KINDS)

    def test_secrets_distinct_equal_length(self):
        a, b = default_secrets(7)
        assert a != b and len(a) == len(b)


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


class TestOracle:
    def test_clean_traces_have_no_violations(self):
        report = fuzz_sweep(0, 6)
        assert report.ok, [
            (v.seed, v.violations) for v in report.failures
        ]

    def test_verdict_is_deterministic(self):
        plan = generate_plan(9)
        v1 = check_trace(plan, arms=ARMS)
        v2 = check_trace(plan, arms=ARMS)
        assert v1.ok == v2.ok and v1.violations == v2.violations

    def test_coop_and_replicated_arms_agree(self):
        plan = generate_plan(5)
        secret = default_secrets(5)[0]
        coop = run_replicated(plan, secret, workers=1)
        par = run_replicated(plan, secret, workers=2)
        assert not diff_observables(
            normalize_cross_arm(coop), normalize_cross_arm(par)
        )

    def test_fork_executor_matches_replica_arm(self):
        plan = generate_plan(5)
        secret = default_secrets(5)[0]
        forked = run_forked(plan, secret, workers=2)
        repl = run_replicated(plan, secret, workers=2)
        assert not diff_observables(
            normalize_cross_arm(forked), normalize_cross_arm(repl)
        )

    def test_pipe_read_leak_caught(self):
        assert leak_catch_budget("pipe-read", max_traces=3) == 1

    def test_file_read_leak_caught(self):
        assert leak_catch_budget("file-read", max_traces=3) == 1

    def test_leak_surfaces_in_data_not_denials(self):
        # The planted pipe leak must be caught through the *extended*
        # observables (payload bytes), not a trivially different denial
        # count — the denial counters still tick in the leaky module.
        plan = generate_plan(0)
        verdict = check_trace(plan, leak="pipe-read", arms=("coop",))
        assert not verdict.ok
        assert all("oplogs" in v.detail or "group_fs" in v.detail
                   or "traffic" in v.detail for v in verdict.violations)


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


class TestShrinker:
    def test_shrinks_planted_leak_to_minimal_prefix(self):
        plan = generate_plan(0)
        k, minimal = shrink_trace(plan, leak="pipe-read")
        # Prefix K must fail and K-1 must pass (minimality of the
        # binary-searched prefix).
        assert not check_trace(
            plan.truncated(k), leak="pipe-read", arms=("coop",)
        ).ok
        if k > 1:
            assert check_trace(
                plan.truncated(k - 1), leak="pipe-read", arms=("coop",)
            ).ok
        # The greedy pass may only remove further ops, never add.
        assert len(minimal.ops) <= k
        assert not check_trace(minimal, leak="pipe-read", arms=("coop",)).ok

    def test_subset_closes_over_dependencies(self):
        plan = generate_plan(3)  # seed 3 generates scratch consumers
        assert any(
            op.kind in ("scratch_rw", "unlink_scratch") for op in plan.ops
        )
        providers = {
            op.index for op in plan.ops if op.kind == "creat_scratch"
        }
        keep = frozenset(
            op.index for op in plan.ops if op.index not in providers
        )
        reduced = plan.subset(keep)
        kept_kinds = {op.kind for op in reduced.ops}
        assert "scratch_rw" not in kept_kinds
        assert "unlink_scratch" not in kept_kinds


# ---------------------------------------------------------------------------
# The leaky module and observable extractor units
# ---------------------------------------------------------------------------


class TestLeakyModule:
    def test_unknown_leak_rejected(self):
        with pytest.raises(ValueError):
            LeakySecurityModule("timing")

    def test_overridden_hooks_are_not_bakeable(self):
        # The hook-chain compiler must refuse to bake the overridden
        # permission hooks — otherwise a baked allow-verdict would mask
        # the planted leak (and, symmetrically, could mask a real bug).
        leaky = LeakySecurityModule("file-read")
        assert "inode_permission" not in chain_bakeable_hooks(leaky)
        assert "file_permission" not in chain_bakeable_hooks(leaky)
        assert chain_bakeable_hooks(LaminarSecurityModule()) >= {
            "inode_permission",
            "file_permission",
        }

    def test_public_tree_masks_secret_files(self):
        kernel = Kernel(LaminarSecurityModule())
        task = kernel.spawn_task("setup")
        tag, caps = kernel.sys_alloc_tag(task, "t")
        kernel.sys_mkdir(task, "/tmp/pt")
        fd = kernel.sys_creat(task, "/tmp/pt/pub")
        kernel.sys_write(task, fd, b"hello")
        kernel.sys_close(task, fd)
        fd = kernel.sys_create_file_labeled(
            task, "/tmp/pt/sec", LabelPair(secrecy=Label.of(tag))
        )
        kernel.sys_write(task, fd, b"classified")
        kernel.sys_close(task, fd)
        snapshot = dict(
            (path, data) for path, data, _ in public_tree(kernel, "/tmp/pt")
        )
        assert snapshot["/tmp/pt/pub"] == b"hello"
        assert snapshot["/tmp/pt/sec"] == "<secret>"

    def test_world_replicas_are_identical(self):
        # The determinism bedrock: two boots of the same world produce
        # byte-identical public state (tids, inos, tags all replayed).
        plan = generate_plan(2)
        secret = default_secrets(2)[0]
        world = FuzzWorld(plan, secret)
        from repro.analysis.fuzz import _boot

        k1, _ = _boot(world)
        k2, _ = _boot(world)
        assert public_tree(k1) == public_tree(k2)


class TestSecretSwapModes:
    """Each oracle mode runs the execution engine it names, so
    ``_check_tiers`` compares the switch loop, the handler tables and
    tier 2 against each other."""

    SOURCE = """
    class Cell { val }

    method bump(c) {
    entry:
      getfield v, c, val
      const one, 1
      binop v, add, v, one
      putfield c, val, v
      ret v
    }

    method main() {
    entry:
      new c, Cell
      const i, 0
      jmp loop
    loop:
      const lim, 5
      binop more, lt, i, lim
      br more, body, done
    body:
      call i, bump, c
      jmp loop
    done:
      print i
      ret i
    }
    """

    def _engines(self, monkeypatch, mode):
        from repro.analysis.secretswap import collect_observables
        from repro.jit.interpreter import Interpreter

        runs = {"switch": 0, "table": 0}
        for name, attr in (("switch", "_execute_switch"),
                           ("table", "_execute_table")):
            real = getattr(Interpreter, attr)

            def spy(self, method, args, real=real, name=name):
                runs[name] += 1
                return real(self, method, args)

            monkeypatch.setattr(Interpreter, attr, spy)
        obs = collect_observables(self.SOURCE, mode=mode)
        assert obs.result == 5 and obs.output == (5,)
        return runs

    def test_interp_mode_runs_the_switch_loop(self, monkeypatch):
        runs = self._engines(monkeypatch, "interp")
        assert runs["switch"] > 0 and runs["table"] == 0, runs

    def test_tables_mode_runs_the_handler_tables(self, monkeypatch):
        runs = self._engines(monkeypatch, "tables")
        assert runs["table"] > 0 and runs["switch"] == 0, runs

    def test_tier2_mode_never_runs_the_switch_loop(self, monkeypatch):
        assert self._engines(monkeypatch, "tier2")["switch"] == 0

    def test_interp_mode_restores_the_dispatch_tables(self, monkeypatch):
        from repro.core import fastpath

        self._engines(monkeypatch, "interp")
        assert fastpath.flags.dispatch_table is True


# ---------------------------------------------------------------------------
# CLI contract
# ---------------------------------------------------------------------------


class TestCLI:
    def test_clean_run_exits_zero(self):
        code, text = run_lamc("fuzz", "--seed", "3", "--traces", "2")
        assert code == 0
        assert "ok" in text

    def test_planted_leak_exits_one_with_replay(self):
        code, text = run_lamc("fuzz", "--seed", "0", "--leak", "pipe-read")
        assert code == 1
        assert "replay locally: lamc fuzz --seed 0 --ops" in text

    def test_output_bit_reproducible(self):
        args = ("fuzz", "--seed", "0", "--leak", "file-read")
        assert run_lamc(*args) == run_lamc(*args)

    def test_replay_command_reproduces_failure(self):
        code, text = run_lamc(
            "fuzz", "--seed", "0", "--leak", "pipe-read", "--no-shrink"
        )
        assert code == 1
        replay_line = [
            ln for ln in text.splitlines() if ln.startswith("replay locally:")
        ][0]
        argv = replay_line.split("lamc ")[1].split()
        code2, _ = run_lamc(*argv)
        assert code2 == 1

    def test_ops_truncation_matches_plan_prefix(self):
        code, dumped = run_lamc("fuzz", "--seed", "6", "--dump-trace",
                                "--ops", "4")
        assert code == 0
        assert dumped == generate_plan(6).truncated(4).serialize()

    def test_json_report(self):
        import json

        code, text = run_lamc(
            "fuzz", "--seed", "0", "--leak", "pipe-read", "--json"
        )
        payload = json.loads(text)
        assert code == 1 and payload["ok"] is False
        entry = payload["violations"][0]
        assert entry["replay"].startswith("lamc fuzz --seed 0 --ops")
        assert "probe_pipe" in entry["minimal_trace"]

    def test_artifacts_written(self, tmp_path):
        code, _ = run_lamc(
            "fuzz", "--seed", "0", "--leak", "pipe-read",
            "--artifacts", str(tmp_path),
        )
        assert code == 1
        trace = (tmp_path / "fuzz_seed0.trace").read_text()
        assert trace.startswith("# replay locally: lamc fuzz --seed 0")

    def test_unknown_arm_and_leak_exit_two(self):
        assert run_lamc("fuzz", "--arms", "warp")[0] == 2
        assert run_lamc("fuzz", "--leak", "timing")[0] == 2

    def test_fork_arm_smoke(self):
        code, text = run_lamc("fuzz", "--seed", "11", "--arms", "coop,fork")
        assert code == 0, text
