"""Where the shipped scenario fixtures are. Test modules import these from
here, not from conftest: the benchmark's tests have a conftest module of
their own, and the two suites run in one session."""

from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = REPO_ROOT / "scenarios"
FIXTURES = sorted(SCENARIO_DIR.glob("*.yaml"))
