"""README's library-use example runs as written."""

import re
from pathlib import Path

from alertscreen.synth import SyntheticStreamSpec, write_dataset

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    spec = SyntheticStreamSpec(length=20_000, prevalence=0.02, seed=3)
    write_dataset(spec, tmp_path / "stream.csv", tmp_path / "stream.manifest")
    monkeypatch.chdir(tmp_path)
    exec(code, {})
    fp_burden, query_rate = capsys.readouterr().out.split()
    assert float(fp_burden) >= 0 and 0 < float(query_rate) < 1
