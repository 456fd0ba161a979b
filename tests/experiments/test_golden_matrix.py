"""Golden regression tests for the scenario-matrix records.

The committed files under ``tests/golden/matrix*/`` are the canonical
byte-for-byte output of ``repro matrix`` on two tiny fixture graphs (the
wiki and hepth stand-ins at a small scale).  The tests assert that today's
code still produces exactly those bytes -- across worker counts and pool
settings, and (for the engine-specific goldens) per engine -- so any
change that silently perturbs a sampling stream, a seed derivation, the
record schema or the canonical JSON encoding fails loudly here instead of
surfacing as an unexplained drift in archived experiment results.

Regenerate after an *intentional* stream/schema change with::

    PYTHONPATH=src python tests/experiments/test_golden_matrix.py --regenerate

and commit the diff (the review then shows exactly what changed).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.matrix import MatrixSpec, run_matrix

GOLDEN_ROOT = Path(__file__).resolve().parent.parent / "golden"

#: The two tiny fixture graphs, one grid each; the numpy golden exists so
#: the vectorized engine's stream is pinned too (skipped where unavailable).
GOLDEN_SPECS = {
    "matrix-python": MatrixSpec(
        datasets=("wiki", "hepth"),
        algorithms=("raf", "hd"),
        budgets=(3,),
        engines=("python",),
        scale=0.02,
        realizations=300,
        eval_samples=100,
        screen_samples=150,
        seed=17,
    ),
    "matrix-numpy": MatrixSpec(
        datasets=("wiki",),
        algorithms=("raf",),
        budgets=(3,),
        engines=("numpy",),
        scale=0.02,
        realizations=300,
        eval_samples=100,
        screen_samples=150,
        seed=17,
    ),
}


def _golden_dir(name: str) -> Path:
    return GOLDEN_ROOT / name


def _assert_matches_golden(name: str, produced: Path) -> None:
    golden = _golden_dir(name)
    golden_files = sorted(path.name for path in golden.glob("*.json"))
    assert golden_files, f"no committed goldens under {golden}"
    produced_files = sorted(path.name for path in produced.glob("*.json"))
    assert produced_files == golden_files
    for filename in golden_files:
        expected = (golden / filename).read_bytes()
        actual = (produced / filename).read_bytes()
        assert actual == expected, (
            f"{name}/{filename} drifted from the committed golden; if the "
            "change is intentional, regenerate via "
            "'python tests/experiments/test_golden_matrix.py --regenerate'"
        )


class TestGoldenMatrix:
    @pytest.mark.parametrize(
        "workers,pool",
        [(1, True), (1, False), (2, True)],
        ids=["serial-pooled", "serial-pool-free", "fanned-pooled"],
    )
    def test_python_records_match_goldens(self, tmp_path, workers, pool):
        spec = GOLDEN_SPECS["matrix-python"]
        spec = MatrixSpec(**{**_spec_kwargs(spec), "pool": pool})
        run_matrix(spec, tmp_path, workers=workers)
        _assert_matches_golden("matrix-python", tmp_path)

    def test_numpy_records_match_goldens(self, tmp_path):
        run_matrix(GOLDEN_SPECS["matrix-numpy"], tmp_path, workers=1)
        _assert_matches_golden("matrix-numpy", tmp_path)

    def test_goldens_resume_cleanly(self, tmp_path):
        """Committed goldens are valid resume state for their spec."""
        import shutil

        for path in _golden_dir("matrix-python").glob("*.json"):
            shutil.copy(path, tmp_path / path.name)
        result = run_matrix(GOLDEN_SPECS["matrix-python"], tmp_path, workers=1)
        assert result.computed == ()
        assert len(result.skipped) == len(GOLDEN_SPECS["matrix-python"].cells())


def _spec_kwargs(spec: MatrixSpec) -> dict:
    import dataclasses

    return {field.name: getattr(spec, field.name) for field in dataclasses.fields(spec)}


def _regenerate() -> None:
    import shutil
    import tempfile

    for name, spec in GOLDEN_SPECS.items():
        target = _golden_dir(name)
        with tempfile.TemporaryDirectory() as scratch:
            run_matrix(spec, scratch, workers=1, echo=print)
            if target.is_dir():
                shutil.rmtree(target)
            target.mkdir(parents=True)
            for path in sorted(Path(scratch).glob("*.json")):
                shutil.copy(path, target / path.name)
        print(f"regenerated {len(list(target.glob('*.json')))} goldens in {target}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
