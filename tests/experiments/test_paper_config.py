"""Every paper-figure configuration pins the paper's write path.

``ZExpanderConfig`` defaults to what ``cli serve`` runs — a write-combining
append region, promotion by postponed removal — which is *not* what the
paper describes and not what the 22 committed results were taken with.  An
experiment that builds a config without ``append_region_bytes=0`` would
silently inherit the served default and its results would drift, so this
walks every ``ZExpanderConfig(...)`` call under ``repro.experiments`` (and
the metrics-golden replay) and refuses one that leaves the region to the
default.
"""

import ast
from pathlib import Path

import repro.experiments

ROOT = Path(__file__).resolve().parents[2]
#: ``cli.py`` builds the served cache (``serve``) and the chaos harness
#: configs; those are not paper figures.
SOURCES = sorted(
    path
    for path in Path(repro.experiments.__file__).parent.glob("*.py")
    if path.name != "cli.py"
) + [ROOT / "tests" / "metrics" / "test_golden_exposition.py"]


def _config_calls(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "ZExpanderConfig":
                yield node


def _literal(call: ast.Call, keyword: str):
    for kw in call.keywords:
        if kw.arg == keyword:
            assert isinstance(kw.value, ast.Constant), (
                f"{keyword} must be a literal so this test can read it"
            )
            return kw.value.value
    return None


def test_every_experiment_config_pins_region_zero_and_no_cache():
    builders = []
    for path in SOURCES:
        for call in _config_calls(path):
            where = f"{path.name}:{call.lineno}"
            assert all(kw.arg is not None for kw in call.keywords), (
                f"{where}: **kwargs hides the knobs from this check"
            )
            assert _literal(call, "append_region_bytes") == 0, (
                f"{where}: pass append_region_bytes=0 (the paper's "
                "reconstruct-on-every-put); the default is the served config"
            )
            builders.append(path.name)
    assert sorted(builders) == [
        "abl_hzx_capacity.py",
        "abl_promotion.py",
        "abl_zreplacement.py",
        "fig13_bloom.py",
        "fig14_threshold.py",
        "fig15_adaptation.py",
        "hzx_runs.py",
        "mzx_runs.py",
        "test_golden_exposition.py",
    ]


def test_a_bare_zone_is_the_paper_zone():
    """Experiments that drive a ``ZZone`` directly rely on its own
    defaults staying at the paper's."""
    from repro.zzone import ZZone

    zone = ZZone(64 * 1024)
    assert zone.append_region_bytes == 0
