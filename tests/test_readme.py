import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_predicts_held_out_law(capsys):
    block, = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    capsys.readouterr()
    assert scope["est"].report_.ambiguity_flag != "underdetermined"
    # oracle: the held-out Born law |<u_j|psi>|^2, from numpy
    d, psi = scope["d"], scope["psi"]
    truth = np.abs(d.eigenbasis.conj().T @ psi.amplitudes) ** 2
    assert np.max(np.abs(scope["predicted"] - truth)) < 0.01
