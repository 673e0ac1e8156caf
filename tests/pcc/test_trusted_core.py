"""The trusted core imports alone.

The consumer trusts only the code that recomputes the safety predicate
and type-checks the proof (paper §2.3).  A fresh interpreter that imports
:mod:`repro.pcc.validate` must load exactly the modules below: no prover,
analysis, runtime, filter, natural-deduction or proof-store code.
Validating a certified binary there must import nothing more, and must run
at the recursion limit the producer certified under, so a verdict never
depends on whether the process also loaded the prover.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.filters.kv import KV_PROGRAMS, kv_packet_policy
from repro.pcc import certify

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
    "repro.lf.arith",
    "repro.lf.signature",
    "repro.lf.typecheck",
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
    "repro.pcc",
})

#: The trusted modules' physical lines (``wc -l``) may not grow past this.
LINE_BUDGET = 4_900

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

#: Validation of the corpus, whose proofs use ``linarith``, recording
#: the modules whose functions run.  The policies' checkers are closures,
#: so the child builds them from the factories.
_VALIDATE_CORPUS = """
import json
import sys

from repro.pcc.validate import validate
from repro.filters.checksum import checksum_policy
from repro.filters.kv import kv_packet_policy
from repro.filters.policy import packet_filter_policy

blobs = json.loads(sys.stdin.read())
policies = {"packet-filter": packet_filter_policy(),
            "checksum": checksum_policy(), "kv-packet": kv_packet_policy()}
ran = set()


def profile(frame, event, arg):
    if event == "call":
        ran.add(frame.f_globals.get("__name__"))


before = set(sys.modules)
instructions = {}
sys.setprofile(profile)
for name, (policy, blob) in blobs.items():
    report = validate(bytes.fromhex(blob), policies[policy])
    instructions[name] = report.instructions
sys.setprofile(None)
print(json.dumps({"loaded": sorted(set(sys.modules) - before),
                  "ran": sorted(name for name in ran if name
                                and name.split(".")[0] == "repro"),
                  "pretty": "repro.logic.pretty" in sys.modules,
                  "instructions": instructions}))
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


def test_trusted_core_fits_its_line_budget():
    lines = sum((SRC / f"{name.replace('.', '/')}.py").read_text().count("\n")
                for name in TRUSTED_MODULES)
    assert lines <= LINE_BUDGET


def test_linarith_checks_inside_the_trusted_core(certified_filters,
                                                checksum_blob):
    """All nine corpus programs ship ``linarith`` steps: validating them
    loads no module beyond those already imported, runs no function
    outside the trusted core, and never the pretty-printer."""
    blobs = {name: ("packet-filter", certified_filters[name].binary.to_bytes())
             for name in ("filter1", "filter2", "filter3", "filter4")}
    blobs["checksum"] = ("checksum", checksum_blob)
    kv_policy = kv_packet_policy()
    for spec in KV_PROGRAMS:
        blobs[spec.name] = ("kv-packet", certify(
            spec.source, kv_policy,
            invariants=spec.invariants()).binary.to_bytes())
    wire = {name: (policy, blob.hex()) for name, (policy, blob) in blobs.items()}
    child = _run(_VALIDATE_CORPUS, json.dumps(wire).encode())
    assert child["loaded"] == []
    assert set(child["ran"]) <= TRUSTED_MODULES | PACKAGES
    assert not child["pretty"]
    assert len(child["instructions"]) == 9
    assert all(child["instructions"].values())


def test_package_exports_are_the_functions():
    """A submodule named like a lazily exported function would hide it;
    the producer module's name keeps ``certify`` the function."""
    assert _run(_EXPORTS) == {"certify": True, "validate": True}
