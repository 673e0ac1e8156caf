"""Every example script must run clean — examples are the documentation
users trust first."""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = _run("quickstart.py")
        assert "Tampered binary rejected" in out
        assert "data 41 -> 42" in out

    def test_ip_checksum(self):
        out = _run("ip_checksum.py")
        assert "certified" in out.lower()
        assert "1500" in out

    def test_custom_policy(self):
        out = _run("custom_policy.py")
        assert "rejected at certification" in out

    def test_policy_negotiation(self):
        out = _run("policy_negotiation.py")
        assert "Kernel accepted" in out
        assert "unprovable" in out

    def test_proof_tree(self):
        out = _run("proof_tree.py")
        assert "norm_mod_eq" in out
        assert "Figure 6" in out

    def test_tamper_detection(self):
        out = _run("tamper_detection.py")
        assert "detected or provably harmless" in out

    def test_packet_filter_demo(self):
        out = _run("packet_filter_demo.py", "400")
        assert "identical verdicts" in out
