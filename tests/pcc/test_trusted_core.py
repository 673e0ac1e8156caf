"""The trusted core imports alone.

The consumer trusts only the code that recomputes the safety predicate
and type-checks the proof (paper §2.3).  A fresh interpreter that imports
:mod:`repro.pcc.validate` must load exactly the modules below: no prover,
analysis, runtime, filter or proof-store code.  Validating a certified
binary there must import nothing more, and must run at the recursion
limit the producer certified under, so a verdict never depends on whether
the process also loaded the prover.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: The trusted modules, which the checker runs or whose data it reads ...
TRUSTED_MODULES = frozenset({
    "repro.errors",
    "repro.alpha.isa",
    "repro.alpha.encoding",
    "repro.logic.terms",
    "repro.logic.eqcache",
    "repro.logic.formulas",
    "repro.logic.subst",
    "repro.logic.simplify",
    "repro.vcgen.policy",
    "repro.vcgen.vcgen",
    "repro.lf.syntax",
    "repro.lf.binary",
    "repro.lf.encode",
    "repro.lf.signature",
    "repro.lf.typecheck",
    "repro.proof.proofs",
    "repro.proof.rules",
    "repro.pcc.container",
    "repro.pcc.validate",
})

#: ... and the package ``__init__``s on their import paths.
PACKAGES = frozenset({
    "repro",
    "repro.alpha",
    "repro.logic",
    "repro.vcgen",
    "repro.lf",
    "repro.proof",
    "repro.pcc",
})

_VALIDATE_ALONE = """
import json
import sys

import repro.pcc.validate


def loaded():
    return sorted(name for name in sys.modules
                  if name == "repro" or name.startswith("repro."))


imported = loaded()
from repro.pcc.validate import validate
from repro.vcgen.policy import resource_access_policy

report = validate(sys.stdin.buffer.read(), resource_access_policy())
print(json.dumps({"imported": imported, "validated": loaded(),
                  "limit": sys.getrecursionlimit(),
                  "instructions": report.instructions}))
"""

_EXPORTS = """
import json
import sys

import repro.pcc.producer
import repro.pcc.api
from repro.pcc import certify
import repro.pcc.validate
from repro.pcc import validate

print(json.dumps({
    "certify": certify is sys.modules["repro.pcc.producer"].certify,
    "validate": validate is sys.modules["repro.pcc.validate"].validate,
}))
"""


def _run(script: str, stdin: bytes = b"") -> dict:
    """Run ``script`` in a fresh interpreter that sees only ``src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", script], input=stdin,
                            capture_output=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    return json.loads(result.stdout)


def test_validator_imports_only_the_trusted_core(resource_certified):
    child = _run(_VALIDATE_ALONE, resource_certified.binary.to_bytes())
    assert set(child["imported"]) == TRUSTED_MODULES | PACKAGES
    assert child["limit"] >= 20_000
    assert child["instructions"] == 7
    assert child["validated"] == child["imported"]


def test_package_exports_are_the_functions():
    """A submodule named like a lazily exported function would hide it;
    the producer module's name keeps ``certify`` the function."""
    assert _run(_EXPORTS) == {"certify": True, "validate": True}
