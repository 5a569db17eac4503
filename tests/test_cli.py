import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from qoverpart import cli, harness
from qoverpart.cli import run
from qoverpart.enumerators import enumerate_class
from qoverpart.harness import IdentityRecord, Side, SideKind
from qoverpart.partitions import format_partition


def bundled_bfile_path():
    return str(resources.files("qoverpart").joinpath("data").joinpath("a027349.txt"))


def run_ok(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


# -- enumerate ---------------------------------------------------------------


def test_enumerate_table(capsys):
    out = run_ok(capsys, ["enumerate", "--class", "rr1-over", "--n", "4"])
    assert out == "3,1\n3,1~\n"


def test_enumerate_records(capsys):
    out = run_ok(
        capsys, ["enumerate", "--class", "rr1-over", "--n", "4", "--format", "records"]
    )
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [
        {"parts": [3, 1], "overlined": []},
        {"parts": [3], "overlined": [1]},
    ]


def test_enumerate_csv(capsys):
    out = run_ok(
        capsys, ["enumerate", "--class", "d", "--n", "4", "--format", "csv"]
    )
    assert out == 'member\n4\n"3,1"\n'


def test_enumerate_unknown_class_exits_2(capsys):
    assert run(["enumerate", "--class", "zz", "--n", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown class 'zz'")


def test_enumerate_count_only_class_exits_2(capsys):
    assert run(["enumerate", "--class", "stembridge:gg1", "--n", "4"]) == 2
    assert "count-only" in capsys.readouterr().err


def test_negative_n_exits_2(capsys):
    assert run(["enumerate", "--class", "d", "--n", "-3"]) == 2
    assert "--n must be >= 0" in capsys.readouterr().err


# -- count ---------------------------------------------------------------------


def test_count_single_weight(capsys):
    assert run_ok(capsys, ["count", "--class", "over", "--n", "3"]) == "3 8\n"


@pytest.mark.parametrize("fmt", ["table", "csv", "records"])
def test_count_single_weight_is_the_last_row_of_its_range(capsys, fmt):
    def lines(flag):
        out = run_ok(capsys, ["count", "--class", "rr1", flag, "12", "--format", fmt])
        return out.splitlines()

    header = lines("--max-n")[:1] if fmt == "csv" else []
    assert lines("--n") == header + lines("--max-n")[-1:]


def test_count_range_csv(capsys):
    out = run_ok(
        capsys, ["count", "--class", "d", "--max-n", "5", "--format", "csv"]
    )
    assert out == "n,count\n0,1\n1,1\n2,1\n3,2\n4,2\n5,3\n"


def test_count_range_records(capsys):
    out = run_ok(
        capsys, ["count", "--class", "rr1", "--max-n", "2", "--format", "records"]
    )
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [
        {"class": "rr1", "n": 0, "count": 1},
        {"class": "rr1", "n": 1, "count": 1},
        {"class": "rr1", "n": 2, "count": 1},
    ]


def test_count_requires_exactly_one_range_flag(capsys):
    assert run(["count", "--class", "d"]) == 2
    assert run(["count", "--class", "d", "--n", "3", "--max-n", "5"]) == 2


# the dictionary count table held O(n^3) integers: 5.1 GB for this command
COUNT_OVER_800 = """
import resource, sys
from qoverpart import cli
code = cli.run(["count", "--class", "over", "--max-n", "800"])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
"""


def test_count_over_to_800_peaks_under_200_mb_in_a_child_process():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", COUNT_OVER_800],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    code, peak_kb = proc.stderr.split()[-2:]
    assert code == "0"
    assert proc.stdout.splitlines()[-1].split()[0] == "800"
    # ru_maxrss is in kilobytes on Linux
    assert int(peak_kb) < 200 * 1024, peak_kb


def test_python_dash_m_runs_the_cli_in_a_child_process():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "qoverpart", "count", "--class", "d", "--n", "5"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "5 3\n"


# -- coeff ------------------------------------------------------------------------


def test_coeff_table_lists_series_sides(capsys):
    out = run_ok(capsys, ["coeff", "--id", "euler", "--max-n", "6"])
    lines = out.splitlines()
    assert lines[0].split() == ["n", "product:(-q;q)", "product:1/(q;q^2)"]
    assert lines[1].split() == ["0", "1", "1"]
    assert lines[-1].split() == ["6", "4", "4"]


def test_coeff_side_restriction(capsys):
    out = run_ok(
        capsys,
        ["coeff", "--id", "frr", "--max-n", "4", "--side", "sum", "--format", "csv"],
    )
    assert out == "n,sum\n0,1\n1,1\n2,1\n3,1\n4,2\n"


def test_coeff_unknown_side_lists_series_labels(capsys):
    assert run(["coeff", "--id", "euler", "--side", "nope"]) == 2
    err = capsys.readouterr().err
    assert "no series side 'nope'" in err
    assert "product:(-q;q)" in err


def test_coeff_records_format(capsys):
    out = run_ok(
        capsys,
        ["coeff", "--id", "frr", "--max-n", "2", "--format", "records"],
    )
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0]["n"] == 0
    assert all("sum" in row for row in rows)


def test_coeff_keeps_terms_a_negative_shift_pulls_below_the_order(capsys):
    # the n=1 term q^3 (1 + q^-1) reaches q^2 through its q^-1 factor
    out = run_ok(capsys, ["coeff", "--id", "hgl2", "--max-n", "2", "--format", "csv"])
    assert out == "n,sum,product:mod8-237\n0,1,1\n1,0,0\n2,1,1\n"


@pytest.mark.parametrize(
    "identity_id,side",
    [("hgl4", "sum"), ("hgll4", "sum:quad"), ("lebesgue:a=0,b=-1", "sum")],
)
def test_coeff_at_small_orders_agrees_with_a_deep_expansion(capsys, identity_id, side):
    def column(max_n):
        out = run_ok(capsys, ["coeff", "--id", identity_id, "--side", side,
                              "--max-n", str(max_n), "--format", "csv"])
        return out.splitlines()[1:]

    deep = column(40)
    for k in (1, 2, 3, 5, 10, 11):
        assert column(k) == deep[: k + 1], k


# -- bijection ----------------------------------------------------------------------


def test_bijection_worked_example(capsys):
    out = run_ok(
        capsys,
        ["bijection", "--map", "h-oe", "--input", "20,18,15,13,10,7,4,1"],
    )
    assert out == "15,13,11,9,7,5,3,1,7~,6~,5~,4~,2~\n"


def test_bijection_inverse(capsys):
    out = run_ok(
        capsys,
        [
            "bijection", "--map", "h-oe", "--inverse",
            "--input", "15,13,11,9,7,5,3,1,7~,6~,5~,4~,2~",
        ],
    )
    assert out == "20,18,15,13,10,7,4,1\n"


def test_bijection_malformed_input_exits_2(capsys):
    assert run(["bijection", "--map", "f", "--input", "3,xx"]) == 2
    assert "token 1: 'xx' is not a positive integer" in capsys.readouterr().err


def test_bijection_unknown_map_exits_2(capsys):
    assert run(["bijection", "--map", "zz", "--input", "3,1"]) == 2
    assert "unknown map 'zz'" in capsys.readouterr().err


@pytest.mark.parametrize("map_id", ["f", "h-oe", "h-eo", "g-gg", "g-lg"])
def test_bijection_round_trips_through_the_cli(capsys, map_id):
    from qoverpart.bijections import get_map

    source = get_map(map_id).source
    for n in range(21):
        for member in enumerate_class(source, n):
            text = format_partition(member)
            image = run_ok(
                capsys, ["bijection", "--map", map_id, "--input", text]
            ).strip()
            back = run_ok(
                capsys, ["bijection", "--map", map_id, "--inverse", "--input", image]
            ).strip()
            assert back == text


# -- verify ---------------------------------------------------------------------------


def test_verify_single_identity_table(capsys):
    out = run_ok(capsys, ["verify", "--id", "euler", "--max-n", "8"])
    assert "identity euler  bound 8  status PASS" in out


def test_verify_all_records(capsys):
    out = run_ok(
        capsys,
        ["verify", "--id", "all", "--max-n", "6", "--format", "records", "--no-elapsed"],
    )
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 55
    assert all(row["status"] in ("PASS", "FLAGGED") for row in rows)
    assert all("elapsed_ms" not in row for row in rows)


def test_verify_flagged_report_exits_0(capsys):
    out = run_ok(capsys, ["verify", "--id", "slater121", "--max-n", "6"])
    assert "status FLAGGED" in out


def test_verify_jobs_flag(capsys):
    out = run_ok(
        capsys,
        ["verify", "--id", "all", "--max-n", "2", "--format", "records",
         "--no-elapsed", "--jobs", "2"],
    )
    assert len(out.splitlines()) == 55


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_jobs_below_one_exits_2(capsys, jobs):
    assert run(["verify", "--id", "all", "--max-n", "2", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert "error: --jobs must be >= 1" in captured.err
    assert captured.out == ""


def test_verify_one_job_gives_the_sequential_records(capsys):
    argv = ["verify", "--id", "all", "--max-n", "2", "--format", "records", "--no-elapsed"]
    assert run_ok(capsys, argv + ["--jobs", "1"]) == run_ok(capsys, argv)


def test_verify_failure_exits_1(capsys):
    rigged = IdentityRecord(
        "rigged-fail",
        "two constant sides that disagree",
        (
            Side("a", SideKind.ENUM_COUNT, lambda b: [1] * (b + 1)),
            Side("b", SideKind.ENUM_COUNT, lambda b: [2] * (b + 1)),
        ),
    )
    registry = harness._registry()
    registry["rigged-fail"] = rigged
    try:
        assert run(["verify", "--id", "rigged-fail", "--max-n", "4"]) == 1
        out = capsys.readouterr().out
        assert "status FAIL" in out
    finally:
        del registry["rigged-fail"]


@pytest.mark.parametrize("identity_id", ["hgl2", "stembridge:lg1"])
def test_verify_passes_at_a_former_truncation_edge(capsys, identity_id):
    out = run_ok(capsys, ["verify", "--id", identity_id, "--max-n", "209",
                          "--format", "records", "--no-elapsed"])
    assert json.loads(out)["status"] == "PASS"


def test_verify_almost_sc_at_200_evaluates_both_sides_to_the_bound(capsys):
    out = run_ok(capsys, ["verify", "--id", "almost-sc", "--max-n", "200",
                          "--format", "records", "--no-elapsed"])
    report = json.loads(out)
    assert report["status"] == "PASS"
    assert not any("(cap)" in note for note in report["notes"])
    assert [len(side["values"]) for side in report["sides"]] == [201, 201]


def test_verify_unknown_identity_exits_2(capsys):
    assert run(["verify", "--id", "zz"]) == 2
    assert "unknown identity 'zz'" in capsys.readouterr().err


def test_verify_writes_to_a_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert run(["verify", "--id", "euler", "--max-n", "4", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert "identity euler  bound 4  status PASS" in target.read_text()


# -- oeis -------------------------------------------------------------------------------


def test_oeis_with_local_bfile_matches(capsys):
    out = run_ok(
        capsys,
        ["oeis", "--id", "a027349", "--bfile", bundled_bfile_path(), "--max-n", "60"],
    )
    lines = out.splitlines()
    assert len(lines) == 2
    assert all("MATCH (all 61 overlapping entries match)" in l for l in lines)


def test_oeis_flags_a_perturbed_bfile(tmp_path, capsys):
    entries = harness._bundled_bfile("a027349.txt")
    lines = [f"{n} {v}" for n, v in entries[:40]]
    lines[7] = "7 999"
    bad = tmp_path / "b027349.txt"
    bad.write_text("\n".join(lines) + "\n")
    assert run(["oeis", "--id", "a027349", "--bfile", str(bad), "--max-n", "30"]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH (first mismatch at n=7" in out


def test_oeis_requires_a_source(capsys):
    assert run(["oeis", "--id", "a027349"]) == 2
    assert "provide --bfile PATH or --fetch" in capsys.readouterr().err


def test_oeis_missing_file_exits_2(capsys):
    assert run(["oeis", "--id", "a027349", "--bfile", "/nonexistent/b.txt"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_oeis_fetch_uses_the_cache_directory(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv(cli.CACHE_ENV, str(cache))
    entries = harness._bundled_bfile("a027349.txt")
    cached = cache / "b027349.txt"
    cached.write_text("".join(f"{n} {v}\n" for n, v in entries))
    out = run_ok(capsys, ["oeis", "--id", "a027349", "--fetch", "--max-n", "40"])
    assert "MATCH" in out


class FakeResponse:
    def __init__(self, read):
        self.read = read

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_oeis_fetch_writes_the_cache_file_whole(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv(cli.CACHE_ENV, str(cache))
    text = "".join(f"{n} {v}\n" for n, v in harness._bundled_bfile("a027349.txt"))
    calls = []

    def fake_urlopen(url, timeout=None):
        calls.append((url, timeout))
        return FakeResponse(lambda: text.encode())

    monkeypatch.setattr(cli.urllib.request, "urlopen", fake_urlopen)
    out = run_ok(capsys, ["oeis", "--id", "a027349", "--fetch", "--max-n", "40"])
    assert "MATCH" in out
    assert calls == [("https://oeis.org/A027349/b027349.txt", cli.FETCH_TIMEOUT_S)]
    assert [p.name for p in cache.iterdir()] == ["b027349.txt"]
    assert (cache / "b027349.txt").read_text() == text


def test_oeis_fetch_that_fails_mid_read_leaves_no_cache_file(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv(cli.CACHE_ENV, str(cache))

    def broken_read():
        raise ConnectionResetError("connection dropped")

    monkeypatch.setattr(cli.urllib.request, "urlopen",
                        lambda url, timeout=None: FakeResponse(broken_read))
    assert run(["oeis", "--id", "a027349", "--fetch", "--max-n", "40"]) == 2
    assert "connection dropped" in capsys.readouterr().err
    assert list(cache.iterdir()) == []


@pytest.mark.parametrize("identity_id", ["frr", "almost-sc"])
def test_oeis_fetch_refuses_an_id_that_is_not_an_oeis_number(
    tmp_path, capsys, monkeypatch, identity_id
):
    cache = tmp_path / "cache"
    monkeypatch.setenv(cli.CACHE_ENV, str(cache))
    calls = []
    monkeypatch.setattr(cli.urllib.request, "urlopen",
                        lambda url, timeout=None: calls.append(url))
    assert run(["oeis", "--id", identity_id, "--fetch"]) == 2
    err = capsys.readouterr().err
    assert f"not {identity_id!r}" in err
    assert "--bfile" in err
    assert calls == []
    assert not cache.exists()


# -- argument handling -------------------------------------------------------------------


def test_missing_subcommand_exits_2(capsys):
    assert run([]) == 2


def test_unknown_flag_exits_2(capsys):
    assert run(["count", "--class", "d", "--n", "3", "--bogus"]) == 2
