"""The README's library example runs as written."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _library_example() -> str:
    """The first Python block of the README's `## Library use` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "the Library use section has no python block"
    return match.group(1)


def test_library_example_runs(capsys):
    exec(compile(_library_example(), "README.md (Library use)", "exec"), {})
    # the AUC, then the weights (numpy may wrap them), the method and the flag
    auc, attribution = capsys.readouterr().out.split("\n", 1)
    assert 0.0 <= float(auc) <= 1.0
    assert attribution.startswith("[") and attribution.split()[-1] in ("True", "False")


def test_ci_installs_as_the_readme_says():
    # CI's installed-console-script step runs the README's install command
    install = README.read_text(encoding="utf-8").split("\n## Install\n", 1)[1].split("\n## ", 1)[0]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    step = workflow.split("name: installed console script", 1)[1]
    command = re.search(r"^\s*(python -m pip install .*)$", step, re.MULTILINE).group(1).strip()
    assert re.search(rf"^{re.escape(command)}\s", install, re.MULTILINE), command
