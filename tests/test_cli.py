"""The repro command-line interface."""

import json

import pytest

from repro import serialization
from repro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table51(capsys):
    code, out, _ = run(capsys, "table51")
    assert code == 0
    for name in ("Movies", "Wikipedia", "DDP"):
        assert name in out


def test_generate(capsys, tmp_path):
    out_file = tmp_path / "expr.json"
    code, out, _ = run(
        capsys, "generate", "movielens", "--seed", "3", "--out", str(out_file)
    )
    assert code == 0
    assert "Movies provenance" in out
    expression = serialization.load_expression(out_file.read_text())
    assert expression.size() > 0


def test_generate_show(capsys):
    code, out, _ = run(capsys, "generate", "ddp", "--seed", "1", "--show")
    assert code == 0
    assert "⟨" in out  # the DDP transitions are printed


def test_summarize_prov_approx(capsys, tmp_path):
    save = tmp_path / "summary.json"
    code, out, _ = run(
        capsys,
        "summarize",
        "movielens",
        "--seed", "2",
        "--wdist", "1.0",
        "--steps", "4",
        "--log",
        "--save", str(save),
    )
    assert code == 0
    assert "prov-approx on Movies" in out
    assert "step 1:" in out
    payload = json.loads(save.read_text())
    assert payload["kind"] == "summary"


def test_summarize_baselines(capsys):
    code, out, _ = run(
        capsys, "summarize", "movielens", "--algorithm", "random", "--steps", "3"
    )
    assert code == 0
    assert "random on Movies" in out
    code, out, _ = run(
        capsys, "summarize", "movielens", "--algorithm", "clustering", "--steps", "3"
    )
    assert code == 0


def test_summarize_clustering_rejected_for_ddp(capsys):
    code, _, err = run(
        capsys, "summarize", "ddp", "--algorithm", "clustering", "--steps", "2"
    )
    assert code == 2
    assert "undefined" in err


def test_summarize_removed_carry_flag_exits_2(capsys):
    """``--carry`` is gone (the pool and the lazy queue always carry):
    argparse rejects it with a usage error instead of ignoring it."""
    with pytest.raises(SystemExit) as exited:
        main(["summarize", "movielens", "--carry", "off"])
    assert exited.value.code == 2
    assert "--carry" in capsys.readouterr().err


def test_summarize_removed_sample_block_flag_exits_2(capsys):
    """``--sample-block`` is gone (budgets always round up to 64-draw
    blocks): argparse rejects it with a usage error."""
    with pytest.raises(SystemExit) as exited:
        main(["summarize", "movielens", "--sample-block", "64"])
    assert exited.value.code == 2
    assert "--sample-block" in capsys.readouterr().err


def test_summarize_removed_sample_sharing_flag_exits_2(capsys):
    """``--sample-sharing`` is gone (sampled steps always share one
    batch): argparse rejects it with a usage error."""
    with pytest.raises(SystemExit) as exited:
        main(["summarize", "movielens", "--sample-sharing", "off"])
    assert exited.value.code == 2
    assert "--sample-sharing" in capsys.readouterr().err


def test_summarize_removed_ir_stats_flag_exits_2(capsys):
    """``--ir-stats`` is gone with the annotation interner it reported
    on: argparse rejects it with a usage error."""
    with pytest.raises(SystemExit) as exited:
        main(["summarize", "movielens", "--ir-stats"])
    assert exited.value.code == 2
    assert "--ir-stats" in capsys.readouterr().err


def test_ingest_removed_repair_flag_exits_2(capsys):
    """``--repair`` is gone (streaming repair is always on): argparse
    rejects it with a usage error."""
    with pytest.raises(SystemExit) as exited:
        main(["ingest", "--repair", "off"])
    assert exited.value.code == 2
    assert "--repair" in capsys.readouterr().err


def test_summarize_removed_numpy_kernel_exits_2(capsys):
    """The numpy kernel backend is gone: ``--kernel numpy`` is a usage
    error instead of a silent fallback."""
    with pytest.raises(SystemExit) as exited:
        main(["summarize", "movielens", "--kernel", "numpy"])
    assert exited.value.code == 2
    assert "--kernel" in capsys.readouterr().err


def test_experiment(capsys):
    code, out, _ = run(
        capsys, "experiment", "timing", "--dataset", "ddp", "--seeds", "1"
    )
    assert code == 0
    assert "candidate_ms" in out


def test_prox(capsys):
    code, out, _ = run(capsys, "prox", "--seed", "7")
    assert code == 0
    assert "PROX session" in out
    assert "Provenance Size" in out


def test_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_reproduce_command(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "reproduce",
        "--out", str(tmp_path),
        "--figures", "fig_6_8a",
    )
    assert code == 0
    assert "results written" in out
    assert (tmp_path / "fig_6_8a.csv").exists()
    assert (tmp_path / "SUMMARY.md").exists()
