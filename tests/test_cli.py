"""CLI smoke tests: every subcommand, success and failure paths."""

import json

import pytest

from repro.cli import main

FILTER1 = """
    LDQ    r4, 8(r1)
    EXTWL  r4, 4, r4
    CMPEQ  r4, 8, r0
    RET
"""


@pytest.fixture(scope="module")
def certified_file(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli")
    source = directory / "filter.s"
    source.write_text(FILTER1)
    output = directory / "filter.pcc"
    assert main(["certify", str(source), "-o", str(output),
                 "--policy", "packet-filter"]) == 0
    return output


class TestCli:
    def test_validate(self, certified_file, capsys):
        assert main(["validate", str(certified_file),
                     "--policy", "packet-filter"]) == 0
        out = capsys.readouterr().out
        assert "VALID" in out
        assert "proof bytes" in out

    def test_validate_wrong_policy_fails(self, certified_file, capsys):
        assert main(["validate", str(certified_file),
                     "--policy", "resource-access"]) == 1
        assert "error" in capsys.readouterr().err

    def test_validate_tampered_fails(self, certified_file, tmp_path):
        blob = bytearray(certified_file.read_bytes())
        blob[25] ^= 0xFF
        bad = tmp_path / "bad.pcc"
        bad.write_bytes(bytes(blob))
        assert main(["validate", str(bad),
                     "--policy", "packet-filter"]) == 1

    def test_batch_valid_and_cache_stats(self, certified_file, capsys):
        assert main(["batch", str(certified_file), str(certified_file),
                     "--policy", "packet-filter", "--jobs", "0",
                     "--repeat", "2"]) == 0
        out = capsys.readouterr().out
        assert "2/2 valid" in out
        assert "cache:" in out and "hits" in out and "evictions" in out
        # 4 loads (2 binaries x 2 rounds): round 1 misses (the dup is
        # deduplicated but still a miss), round 2 is pure cache
        assert "2 hits, 2 misses" in out

    def test_batch_isolates_bad_item(self, certified_file, tmp_path,
                                     capsys):
        bad = tmp_path / "bad.pcc"
        bad.write_bytes(b"\x00" * 30)
        assert main(["batch", str(certified_file), str(bad),
                     "--policy", "packet-filter", "--jobs", "0"]) == 1
        out = capsys.readouterr().out
        assert "VALID" in out and "INVALID" in out
        assert "1/2 valid" in out

    def test_batch_through_pool(self, certified_file, capsys):
        assert main(["batch", str(certified_file),
                     "--policy", "packet-filter"]) == 0
        assert "1/1 valid" in capsys.readouterr().out

    def test_disasm(self, certified_file, capsys):
        assert main(["disasm", str(certified_file)]) == 0
        out = capsys.readouterr().out
        assert "LDQ r4, 8(r1)" in out
        assert "RET" in out

    def test_layout(self, certified_file, capsys):
        assert main(["layout", str(certified_file)]) == 0
        out = capsys.readouterr().out
        assert "native code" in out
        assert "proof" in out

    def test_rules_prints_the_signature(self, capsys):
        assert main(["rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("LF signature: 50 proof constants, 19 with a "
                            "computational side condition (marked *)")
        assert "  andel : Πa:form. Πb:form. pf (and a b) → pf a" in lines
        assert ("* linarith : Πa:form. Πc:form. cert → pf a → pf c"
                in lines)
        assert sum(line[2:].partition(" : ")[1] == " : "
                   for line in lines[1:]) == 50

    def test_filter_run(self, capsys):
        assert main(["filter", "filter1", "--packets", "60"]) == 0
        out = capsys.readouterr().out
        assert "pcc" in out and "bpf" in out
        assert "cycles/pkt" in out

    def test_serve_builtin_filters(self, capsys, tmp_path):
        stats = tmp_path / "stats.json"
        assert main(["serve", "--builtin-filters", "--packets", "300",
                     "--shards", "2", "--budget", "100000",
                     "--json", str(stats)]) == 0
        out = capsys.readouterr().out
        assert "ATTACHED filter1" in out
        assert "modeled" in out
        assert stats.exists()
        payload = json.loads(stats.read_text())
        assert payload["shards"] == 2
        assert len(payload["extensions"]) == 4
        assert payload["backend"] == "serial"
        assert payload["wall_seconds"] > 0

    def test_serve_rejects_then_downgrades(self, tmp_path, capsys):
        from repro.alpha.encoding import encode_program
        from repro.alpha.parser import parse_program
        from repro.pcc.container import PccBinary

        rogue = tmp_path / "rogue.pcc"
        code = encode_program(parse_program("STQ r2, 0(r1)\nRET"))
        rogue.write_bytes(PccBinary(code, b"", b"", b"").to_bytes())

        with pytest.raises(SystemExit, match="no extension was admitted"):
            main(["serve", str(rogue), "--packets", "50"])
        assert "REJECTED" in capsys.readouterr().out

        assert main(["serve", str(rogue), "--packets", "50",
                     "--downgrade", "--fault-threshold", "2"]) == 0
        out = capsys.readouterr().out
        assert "checked" in out
        assert "quarantined" in out

    def test_serve_with_fault_injection(self, capsys):
        assert main(["serve", "--builtin-filters", "--packets", "200",
                     "--inject-faults", "0.1"]) == 0
        assert "contract drops" in capsys.readouterr().out

    def test_analyze_certified_binary(self, certified_file, capsys):
        assert main(["analyze", str(certified_file),
                     "--policy", "packet-filter"]) == 0
        out = capsys.readouterr().out
        assert "basic blocks:" in out
        assert "memory accesses:" in out
        assert "safe" in out
        assert "auto cycle budget" in out
        assert "lint: clean" in out
        assert "prescreen" in out  # containers get a prescreen verdict

    def test_analyze_json_report(self, certified_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["analyze", str(certified_file), "--slack", "0.25",
                     "--json", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["slack"] == 0.25
        assert payload["auto_budget"] is not None
        assert payload["wcet"]["classification"] == "exact"

    def test_analyze_raw_code_with_lint_errors(self, tmp_path, capsys):
        from repro.alpha.encoding import encode_program
        from repro.alpha.parser import parse_program

        raw = tmp_path / "spin.bin"
        raw.write_bytes(encode_program(parse_program(
            "loop: BR loop\nRET")))
        assert main(["analyze", str(raw)]) == 1
        out = capsys.readouterr().out
        assert "unbudgeted dispatch" in out  # unbounded loop, no budget
        assert "missing-ret" in out
        assert "unreachable-block" in out

    def test_serve_auto_budget(self, capsys):
        assert main(["serve", "--builtin-filters", "--packets", "100",
                     "--budget", "auto", "--budget-slack", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "budget" in out and "wcet" in out

    def test_serve_rejects_malformed_budget(self):
        with pytest.raises(SystemExit):
            main(["serve", "--builtin-filters", "--packets", "10",
                  "--budget", "fast"])

    @pytest.mark.parametrize("command", [
        ["filter", "filter1", "--packets"],
        ["serve", "--builtin-filters", "--packets"],
        ["chaos", "--quick", "--packets"],
        ["upgrade", "live.pcc", "candidate.pcc", "--packets"],
        ["serve", "--builtin-filters", "--shards"],
        ["serve", "--builtin-filters", "--batch-size"],
        ["serve", "--builtin-filters", "--fault-threshold"],
        ["serve", "--builtin-filters", "--repeat"],
        ["upgrade", "live.pcc", "candidate.pcc", "--shards"],
        ["upgrade", "live.pcc", "candidate.pcc", "--promote-after"],
        ["chaos", "--quick", "--shards"],
        ["chaos", "--quick", "--mutation-rounds"],
        ["batch", "a.pcc", "--repeat"],
        ["batch", "a.pcc", "--cache-capacity"]])
    @pytest.mark.parametrize("packets", ["0", "-5"])
    def test_packets_must_be_positive(self, command, packets, capsys):
        """Every count option: a usage error before any work, not a
        traceback or a wrong answer."""
        with pytest.raises(SystemExit) as exit_info:
            main([*command, packets])
        assert exit_info.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["-2", "-1", "two"])
    def test_jobs_must_be_non_negative(self, jobs, capsys):
        """``--jobs 0`` means in-process; a negative count is a usage
        error, not a silent in-process run."""
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", "a.pcc", "--jobs", jobs])
        assert exit_info.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err

    def test_unknown_policy(self, tmp_path):
        source = tmp_path / "f.s"
        source.write_text(FILTER1)
        with pytest.raises(SystemExit):
            main(["certify", str(source), "-o", str(tmp_path / "o"),
                  "--policy", "nonsense"])

    def test_unknown_filter(self):
        with pytest.raises(SystemExit):
            main(["filter", "filter99"])

    def test_uncertifiable_source(self, tmp_path, capsys):
        source = tmp_path / "bad.s"
        source.write_text("LDQ r4, 4096(r1)\nRET\n")
        assert main(["certify", str(source), "-o",
                     str(tmp_path / "bad.pcc"),
                     "--policy", "packet-filter"]) == 1
        assert "error" in capsys.readouterr().err


BENIGN_VARIANT = """
    LDQ    r4, 8(r1)
    EXTWL  r4, 4, r4
    CMPEQ  r4, 8, r0
    ADDQ   r3, 0, r3
    RET
"""

DIVERGENT_VARIANT = """
    LDQ    r4, 8(r1)
    EXTWL  r4, 4, r4
    CMPEQ  r4, 8, r0
    CMPEQ  r0, 0, r0
    RET
"""


@pytest.fixture(scope="module")
def candidate_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-upgrade")
    paths = {}
    for name, variant in (("benign", BENIGN_VARIANT),
                          ("divergent", DIVERGENT_VARIANT)):
        source = directory / f"{name}.s"
        source.write_text(variant)
        output = directory / f"{name}.pcc"
        assert main(["certify", str(source), "-o", str(output),
                     "--policy", "packet-filter"]) == 0
        paths[name] = output
    return paths


class TestUpgradeCommand:
    def test_benign_candidate_promotes(self, certified_file,
                                       candidate_files, capsys):
        assert main(["upgrade", str(certified_file),
                     str(candidate_files["benign"]),
                     "--packets", "500", "--promote-after", "64"]) == 0
        out = capsys.readouterr().out
        assert "PROMOTED" in out
        assert "clean" in out

    def test_divergent_candidate_rolls_back(self, certified_file,
                                            candidate_files, capsys):
        assert main(["upgrade", str(certified_file),
                     str(candidate_files["divergent"]),
                     "--packets", "500"]) == 1
        out = capsys.readouterr().out
        assert "ROLLED-BACK" in out
        assert "divergence" in out

    def test_byte_identical_candidate_fails_cleanly(self, certified_file):
        with pytest.raises(SystemExit):
            main(["upgrade", str(certified_file), str(certified_file)])


class TestChaosCommand:
    def test_quick_campaign_passes(self, capsys):
        assert main(["chaos", "--quick", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "ALL INVARIANTS HELD" in out
        assert "PASS" in out and "FAIL" not in out

    def test_scenario_subset_and_json(self, tmp_path, capsys):
        report_path = tmp_path / "chaos.json"
        assert main(["chaos", "--quick",
                     "--scenario", "upgrade-rollback",
                     "--scenario", "shard-crash",
                     "--json", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        assert payload["passed"] is True
        assert [s["name"] for s in payload["scenarios"]] == \
            ["upgrade-rollback", "shard-crash"]
        out = capsys.readouterr().out
        assert "upgrade-rollback" in out and "shard-crash" in out

    def test_unknown_scenario_fails_cleanly(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--scenario", "no-such-drill"])
