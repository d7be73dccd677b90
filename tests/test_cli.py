import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from garlands.cache import DiskCache
from garlands.cli import main
from garlands.config import SCHEMA_VERSION, Caps
from garlands.matrix_group import AmbientGroup
from garlands.runner import CaseSpec, run_case, run_sweep

SRC = str(Path(__file__).resolve().parents[1] / "src")
GOLDEN = Path(__file__).resolve().parent / "golden"


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_torus_f9_gl(capsys):
    code, out, _ = _run(capsys, ["torus", "--p", "3", "--degrees", "2", "--ambient", "gl", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["torus"]["order"] == 8
    assert doc["torus"]["maximal_abelian"] is True


def test_torus_diagonal(capsys):
    code, out, _ = _run(capsys, ["torus", "--p", "3", "--degrees", "1,1", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["torus"]["order"] == 4
    for rows in doc["torus"]["generators"]:
        assert rows[0][1] == [0] and rows[1][0] == [0]  # diagonal generators


def test_torus_sl22(capsys):
    code, out, _ = _run(capsys, ["torus", "--p", "2", "--degrees", "2", "--ambient", "sl", "--json"])
    assert code == 0
    assert json.loads(out)["torus"]["order"] == 3


def test_case_run_leaves_numpy_ma_unimported():
    # numpy.ma is imported by np.unique, and costs 14-15 ms on first use
    script = (
        "import sys; from garlands.runner import CaseSpec, run_case; "
        "run_case(CaseSpec(2, 1, (1, 1, 1), 'gl')); print('numpy.ma' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "False"


def test_verify_confirmed_case(capsys):
    code, out, _ = _run(capsys, ["verify", "--p", "3", "--degrees", "2", "--ambient", "gl", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["garland"]["equal"] is True
    assert doc["overall"] == "confirmed"


def test_verify_expected_counterexample_exit_zero(capsys):
    code, out, _ = _run(capsys, ["verify", "--p", "3", "--degrees", "1,1", "--ambient", "gl", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["garland"]["equal"] is False
    assert doc["overall"] == "expected_counterexample"


def test_verify_sl_f25(capsys):
    code, out, _ = _run(capsys, ["verify", "--p", "5", "--degrees", "2", "--ambient", "sl", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["garland"]["equal"] is True
    assert doc["restriction"]["equal"] is True


def test_verify_cap_exit_3(capsys):
    code, _, err = _run(capsys, ["verify", "--p", "7", "--degrees", "2,1", "--json"])
    assert code == 3  # GL(3,7) far over the enumeration cap


@pytest.mark.parametrize("command,degrees", [("verify", "21"), ("torus", "21"), ("verify", "7,7,7")])
def test_algebra_cap_exit_3(capsys, command, degrees):
    # 2^21 is over the algebra-order cap: a clean cap failure, not a traceback
    code, _, err = _run(capsys, [command, "--p", "2", "--degrees", degrees])
    assert code == 3
    assert "Traceback" not in err
    if command == "torus":
        assert err.startswith("cap exceeded: algebra order")


def test_field_cap_exit_3(capsys):
    # FieldCapError is a FieldError: the cap clause must catch it first
    code, _, err = _run(capsys, ["torus", "--p", "2", "--base-degree", "30", "--degrees", "2"])
    assert code == 3
    assert err.startswith("cap exceeded: field order")


def test_run_case_skips_over_cap_algebra():
    doc = run_case(CaseSpec(2, 1, (21,), "gl"))
    assert doc["status"] == "skipped_cap"
    assert "algebra order" in doc["reason"]


def test_run_case_skips_an_ambient_with_too_many_candidate_matrices(monkeypatch):
    # SL(2,101) fits a 2,000,000 order cap, but its dense key table would
    # hold a slot for each of its 101^4 candidate matrices: the ambient
    # refuses when it is made, inside run_case's cap handling, and never
    # starts the enumeration
    def refuse(self):
        raise AssertionError("an over-cap ambient started its enumeration")

    monkeypatch.setattr(AmbientGroup, "_ensure", refuse)
    doc = run_case(CaseSpec(101, 1, (2,), "sl"), Caps(group_order=2_000_000))
    assert doc["status"] == "skipped_cap"
    assert doc["reason"] == "cannot enumerate SL(2,101): 104060401 candidate matrices"


def test_caps_are_checked_before_factor_fields_are_built(capsys, monkeypatch):
    # F_16^4 fits the field and algebra caps but GL(4,16) does not: the case
    # is skipped without building F_65536 over F_16
    import garlands.etale
    import garlands.finite_field

    def refuse(*args, **kwargs):
        raise AssertionError("an over-cap case built an extension field")

    monkeypatch.setattr(garlands.finite_field.Extension, "__init__", refuse)
    monkeypatch.setattr(garlands.etale, "construct_extension", refuse)
    doc = run_case(CaseSpec(2, 4, (4,), "gl"))
    assert doc["status"] == "skipped_cap"
    assert doc["reason"].startswith("GL(4,16) has order")
    code, _, err = _run(capsys, ["torus", "--p", "2", "--base-degree", "4", "--degrees", "4"])
    assert code == 3
    assert err.startswith("cap exceeded: GL(4,16) has order")
    # a factor field over its cap is refused after the algebra and before the group
    doc = run_case(CaseSpec(2, 1, (5,), "gl"), Caps(field_order=16))
    assert doc["status"] == "skipped_cap"
    assert doc["reason"] == "field order 32 exceeds cap 16"


def test_validation_error_exit_1(capsys):
    code, _, err = _run(capsys, ["torus", "--p", "6", "--degrees", "2"])
    assert code == 1
    assert "prime" in err


@pytest.mark.parametrize(
    "argv,order",
    [
        (["torus", "--p", "2", "--base-degree", "20000", "--degrees", "2"], "field"),
        (["verify", "--p", "2", "--degrees", "20000"], "algebra"),
        (["verify", "--p", "2", "--base-degree", "20000", "--degrees", "2", "--json"], "field"),
    ],
)
def test_orders_past_4300_digits_exit_3(capsys, argv, order):
    # 2^20000 has 6,021 digits, past the int-to-str limit of Python >= 3.10.7.
    # The cap message names it as 2^20000, refused by its exponent alone,
    # and the skipped document carries the case as given, without q
    code, out, err = _run(capsys, argv)
    assert code == 3
    assert "Traceback" not in err
    assert f"cap exceeded: {order} order 2^20000 exceeds cap 1048576" in err
    if "--json" in argv:
        assert json.loads(out)["case"] == {"p": 2, "base_degree": 20000, "degrees": [2], "ambient": "gl"}


def test_a_skipped_verify_prints_the_case_as_given_at_once(capsys):
    # the skipped document names p and the base degree, not q = 2^1000000,
    # whose decimal form took about 1.4 s to print and filled a 301 KB line
    t0 = time.perf_counter()
    code, out, err = _run(capsys, ["verify", "--p", "2", "--base-degree", "1000000", "--degrees", "2", "--json"])
    elapsed = time.perf_counter() - t0
    assert code == 3 and err.endswith("cap exceeded: field order 2^1000000 exceeds cap 1048576\n")
    assert json.loads(out) == {
        "case": {"ambient": "gl", "base_degree": 1000000, "degrees": [2], "p": 2},
        "reason": "field order 2^1000000 exceeds cap 1048576",
        "schema": SCHEMA_VERSION,
        "status": "skipped_cap",
    }
    assert len(out.encode()) < 1024 and elapsed < 0.5, (len(out), elapsed)


@pytest.mark.parametrize("flags,order", [(["--base-degree", "1000000", "--degrees", "2"], "field"), (["--degrees", "1000000"], "algebra")])
def test_an_order_past_the_cap_by_its_exponent_is_refused_in_one_line(capsys, flags, order):
    # 2^1000000 is refused by its exponent: neither computed nor printed in
    # decimal, which took about 1.9 s and a 301 KB line
    code, out, err = _run(capsys, ["torus", "--p", "2", *flags])
    assert (code, out) == (3, "")
    assert err == f"cap exceeded: {order} order 2^1000000 exceeds cap 1048576\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--p", "10000000000000061", "--degrees", "2"],
        ["torus", "--p", "100000000000000003", "--degrees", "2"],
        ["torus", "--p", "10000000000000000", "--degrees", "2"],  # composite and over the cap: a cap failure too
    ],
)
def test_field_cap_is_checked_before_primality(capsys, monkeypatch, argv):
    # trial division of a p this large takes seconds; the field cap refuses
    # it first, and FieldTable tests primality only below the cap
    import garlands.finite_field
    import garlands.runner

    def refuse(n):
        raise AssertionError(f"is_prime({n}) ran on an over-cap p")

    monkeypatch.setattr(garlands.finite_field, "is_prime", refuse)
    monkeypatch.setattr(garlands.runner, "is_prime", refuse)
    code, _, err = _run(capsys, argv)
    assert code == 3
    assert f"cap exceeded: field order {argv[2]} exceeds cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["torus", "--p", "3"],  # --degrees missing
        ["torus", "--p", "3", "--degrees", "2", "--ambient", "xx"],
        ["torus", "--p", "3", "--degrees", "2", "--bogus"],
        ["torus", "--p", "3", "--degrees", "2", "--cache-dir", "d"],  # only verify and sweep read a cache
        ["pell", "--d", "2", "--cache-dir", "d"],
    ],
)
def test_argument_errors_exit_1(capsys, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(capsys, argv)
    assert code == 1  # exit 2 means unexpected_mismatch
    assert out == "" and "usage:" in err
    assert not any(tmp_path.iterdir())


def test_help_exit_0(capsys):
    code, out, _ = _run(capsys, ["torus", "--help"])
    assert code == 0
    assert "usage:" in out


def test_byte_identical_reports(capsys):
    args = ["verify", "--p", "3", "--degrees", "2", "--ambient", "sl", "--json"]
    _, out1, _ = _run(capsys, args)
    _, out2, _ = _run(capsys, args)
    assert out1 == out2


def test_cache_round_trip(tmp_path, capsys):
    args = ["verify", "--p", "2", "--degrees", "2,1", "--ambient", "sl", "--json"]
    _, plain, _ = _run(capsys, args)
    cached = args + ["--cache-dir", str(tmp_path)]
    _, cold, _ = _run(capsys, cached)
    _, warm, _ = _run(capsys, cached)
    assert plain == cold == warm
    assert any(tmp_path.iterdir())


def test_cache_keyed_by_caps(tmp_path):
    # a case skipped under a small cap must not be served as skipped later
    case = CaseSpec(3, 1, (1, 1), "gl")
    cache = DiskCache(tmp_path)
    assert run_case(case, Caps(group_order=10), cache)["status"] == "skipped_cap"
    assert run_case(case, cache=cache) == run_case(case)


@pytest.mark.parametrize(
    "body",
    [
        {"schema": SCHEMA_VERSION},
        {"schema": SCHEMA_VERSION, "report": "x"},
        [],
        {"schema": SCHEMA_VERSION - 1, "report": {"status": "ok"}},  # an older schema's report
    ],
)
def test_cache_entry_without_report_is_a_miss(tmp_path, body):
    cache = DiskCache(tmp_path)
    (tmp_path / "k.json").write_text(json.dumps(body), encoding="utf-8")
    assert cache.get("k") is None
    assert (cache.hits, cache.misses) == (0, 1)


def test_cache_writes_compact_json_and_reads_the_indented_layout(tmp_path):
    # put writes one line without indentation; a file written in the older
    # indented layout holds the same document and is still a hit
    report = json.loads(json.dumps(run_case(CaseSpec(3, 1, (1, 1), "gl"))))  # as JSON holds it: lists, not tuples
    cache = DiskCache(tmp_path)
    cache.put("new", report)
    text = (tmp_path / "new.json").read_text(encoding="utf-8")
    doc = {"schema": SCHEMA_VERSION, "report": report}
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert cache.get("new") == report
    (tmp_path / "old.json").write_text(json.dumps(doc, sort_keys=True, indent=1), encoding="utf-8")
    assert cache.get("old") == report
    assert (cache.hits, cache.misses) == (2, 0)


def test_cache_writers_of_one_key_keep_their_own_temporary_files(tmp_path, monkeypatch):
    # a second writer of the same key (another process sharing the directory)
    # finishes its put between the first writer's write and its rename
    report = {"status": "ok", "case": {"p": 2}}
    rename = Path.replace
    interleaved = []

    def replace_after_another_put(self, target):
        if not interleaved:
            interleaved.append(self.name)
            DiskCache(tmp_path).put("k", report)
        return rename(self, target)

    monkeypatch.setattr(Path, "replace", replace_after_another_put)
    DiskCache(tmp_path).put("k", report)
    monkeypatch.undo()
    assert interleaved and [p.name for p in tmp_path.iterdir()] == ["k.json"]
    assert DiskCache(tmp_path).get("k") == report


def test_cache_dir_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GARLANDS_CACHE_DIR", str(tmp_path))
    _run(capsys, ["verify", "--p", "2", "--degrees", "2", "--json"])
    assert any(tmp_path.iterdir())


def test_sweep_small(capsys):
    code, out, _ = _run(capsys, ["sweep", "--max-order", "16", "--json"])
    assert code == 0
    lines = _json_lines(out)
    summary = lines[-1]["summary"]
    cases = lines[:-1]
    assert summary["cases"] == len(cases) >= 10
    assert summary["unexpected_mismatches"] == 0
    # the sweep is ordered by case key; a skipped document (the ten GL(4,2)
    # and SL(4,2) cases here) carries only the case as given, so the key
    # comes from CaseSpec
    specs = [CaseSpec(c["p"], c["base_degree"], tuple(c["degrees"]), c["ambient"]) for c in (d["case"] for d in cases)]
    keys = [c.sort_key() for c in specs]
    assert keys == sorted(keys)
    assert sum(d["status"] == "skipped_cap" for d in cases) == 10


def test_sweep_byte_identical(capsys):
    args = ["sweep", "--max-order", "9", "--json"]
    _, out1, _ = _run(capsys, args)
    _, out2, _ = _run(capsys, args)
    assert out1 == out2


def test_sweep_threads_byte_identical(capsys):
    args = ["sweep", "--max-order", "30", "--json"]
    code1, out1, _ = _run(capsys, [*args, "--threads", "1"])
    code2, out2, _ = _run(capsys, [*args, "--threads", "2"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_sweep_500_threads_2_prints_the_golden_reports(capsys):
    # the corpus run from two worker processes: the golden reports line for
    # line, then the summary of the same sweep run in this process
    code, out, _ = _run(capsys, ["sweep", "--max-order", "500", "--json", "--threads", "2"])
    assert code == 0
    golden = (GOLDEN / "sweep_500.jsonl").read_text().splitlines()
    assert len(golden) == 232
    summary = json.dumps({"summary": run_sweep(500)[1]}, sort_keys=True, separators=(",", ":"))
    assert out.splitlines() == golden + [summary]


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_sweep_threads_below_one_exit_1(capsys, threads):
    code, out, err = _run(capsys, ["sweep", "--max-order", "9", "--threads", threads])
    assert code == 1
    assert out == "" and "threads" in err


def test_sweep_starts_no_more_workers_than_cases(monkeypatch):
    import multiprocessing

    from garlands import runner

    pools = []
    real = multiprocessing.get_context

    def spy(method=None):
        ctx = real(method)

        class Context:
            def Pool(self, workers):
                pools.append((method, workers))
                return ctx.Pool(workers)

        return Context()

    monkeypatch.setattr(multiprocessing, "get_context", spy)
    # GL and SL of two algebras over F_2; an algebra's cases are one task,
    # so the four cases start two workers
    reports, summary = runner.run_sweep(4, threads=8)
    assert pools == [("spawn", 2)] and summary["cases"] == 4
    assert reports == runner.run_sweep(4, threads=1)[0]


def _brute_cases(max_order: int) -> list[tuple]:
    """sort_key of every case with q^n <= max_order and n >= 2, from trial division and partitions grown one cell at a time."""
    partitions = {1: {(1,)}}
    cases = []
    for q in range(2, max_order + 1):
        p = next((f for f in range(2, math.isqrt(q) + 1) if q % f == 0), q)
        if p ** round(math.log(q, p)) != q:
            continue
        n = 2
        while q**n <= max_order:
            if n not in partitions:
                partitions[n] = {
                    tuple(sorted(grown, reverse=True))
                    for part in partitions[n - 1]
                    for grown in [part + (1,)] + [part[:i] + (part[i] + 1,) + part[i + 1 :] for i in range(len(part))]
                }
            cases += [(q, n, degs, ambient) for degs in partitions[n] for ambient in ("gl", "sl")]
            n += 1
    return sorted(cases)


def test_sweep_cases_lists_only_bases_that_carry_a_case(monkeypatch):
    from garlands import runner

    for max_order in [*range(-3, 300), 500, 1024, 4096, 12_345]:
        assert [c.sort_key() for c in runner.sweep_cases(max_order)] == _brute_cases(max_order), max_order
    # a case needs n >= 2, so no base above isqrt(max_order) is looked at
    asked = []
    is_prime = runner.is_prime
    monkeypatch.setattr(runner, "is_prime", lambda n: asked.append(n) or is_prime(n))
    for max_order in (-1, 0, 3, 4, 500, 10**4, 10**6):
        asked.clear()
        cases = runner.sweep_cases(max_order)
        assert all(n <= math.isqrt(max(max_order, 0)) for n in asked), max_order
        assert all(c.q**2 <= max_order for c in cases), max_order
    assert len(cases) == 6_268


def test_sweep_pell_table(capsys):
    code, out, _ = _run(capsys, ["sweep", "--pell", "--d-max", "100", "--json"])
    assert code == 0
    lines = _json_lines(out)
    assert len(lines) == 100
    d34 = next(r for r in lines if r.get("d") == 34)
    assert d34["criterion_agrees"] is False


def test_sweep_pell_100_golden(capsys):
    # byte-identical to the stored table, row by row
    code, out, _ = _run(capsys, ["sweep", "--pell", "--d-max", "100", "--json"])
    assert code == 0
    golden = (GOLDEN / "pell_100.jsonl").read_text().splitlines()
    assert out.splitlines() == golden


def test_sweep_pell_20000_digest(capsys):
    # SHA-256 of the whole table, byte for byte
    code, out, _ = _run(capsys, ["sweep", "--pell", "--d-max", "20000", "--json"])
    assert code == 0
    want = (GOLDEN / "pell_20000.sha256").read_text().split()[0]
    assert hashlib.sha256(out.encode()).hexdigest() == want


def test_torus_golden(capsys):
    golden = (GOLDEN / "torus.jsonl").read_text().splitlines()
    cases = [["--p", "3", "--degrees", "2,1", "--ambient", "sl"], ["--p", "13", "--degrees", "2", "--ambient", "sl"]]
    assert len(golden) == len(cases)
    for flags, want in zip(cases, golden):
        code, out, _ = _run(capsys, ["torus", *flags, "--json"])
        assert code == 0
        assert out.splitlines() == [want], flags


def test_pell_single(capsys):
    code, out, _ = _run(capsys, ["pell", "--d", "2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["variant"] == "TwoCosets" and (doc["x0"], doc["y0"]) == (1, 1)

    code, out, _ = _run(capsys, ["pell", "--d", "3", "--json"])
    assert json.loads(out)["variant"] == "TorusOnly"

    code, out, _ = _run(capsys, ["pell", "--d", "34", "--json"])
    doc = json.loads(out)
    assert doc["variant"] == "TorusOnly" and doc["criterion_agrees"] is False


def test_pell_requires_d(capsys):
    code, _, err = _run(capsys, ["pell"])
    assert code == 1
    assert "one of the arguments --d --d-max is required" in err


def test_pell_refuses_both_d_and_d_max(capsys):
    # one d or a table up to d-max: both together is an error, not d's row
    for argv in (["pell", "--d", "2", "--d-max", "3"], ["pell", "--d-max", "3", "--d", "2", "--json"]):
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == "", argv
        assert "not allowed with argument" in err, argv


def test_pell_invalid_d(capsys):
    code, _, err = _run(capsys, ["pell", "--d", "12"])
    assert code == 1
    assert "squarefree" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["pell", "--d", "1000001"],
        ["pell", "--d-max", "1000001", "--json"],
        ["sweep", "--pell", "--d-max", "1000001"],
        ["pell", "--d", "-1000001"],
    ],
)
def test_pell_cap_exit_3(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("cap exceeded:")


def test_pell_range_text_matches_sweep_table(capsys):
    code, pell_out, _ = _run(capsys, ["pell", "--d-max", "30"])
    assert code == 0
    _, sweep_out, _ = _run(capsys, ["sweep", "--pell", "--d-max", "30"])
    assert pell_out == sweep_out
    lines = pell_out.splitlines()
    assert len(lines) == 30
    assert lines[1] == "d=     2  period=  1  solvable=True   x0=1 y0=1"
