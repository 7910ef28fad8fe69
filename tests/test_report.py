"""Report schema unit tests plus CLI failure-path contracts."""

import json

import pytest

from geomfree import cli, identities
from geomfree.constants import _certified_sign, shared_table
from geomfree.errors import ToleranceTooTight
from geomfree.report import CheckResult, build_report, report_to_json, validate_report


class TestReportSchema:
    def _sample(self):
        return [
            CheckResult("alpha", "exact", True, {"residual": "0"}, 1),
            CheckResult("beta", "numeric", False, {"max_discrepancy": 0.25}, 10),
        ]

    def test_build_and_validate(self):
        rep = build_report(self._sample())
        assert validate_report(rep)
        assert rep["summary"] == {"total": 2, "passed": 1, "failed": 1}

    def test_json_round_trip(self):
        rep = build_report(self._sample())
        assert json.loads(report_to_json(rep)) == rep

    def test_missing_key_rejected(self):
        rep = build_report(self._sample())
        del rep["summary"]
        with pytest.raises(ValueError):
            validate_report(rep)

    def test_bad_kind_rejected(self):
        rep = build_report([CheckResult("x", "fuzzy", True, {}, 1)])
        with pytest.raises(ValueError):
            validate_report(rep)

    def test_summary_mismatch_rejected(self):
        rep = build_report(self._sample())
        rep["summary"]["passed"] = 2
        with pytest.raises(ValueError):
            validate_report(rep)

    def test_non_object_check_rejected(self):
        rep = build_report(self._sample())
        rep["checks"] = [1]
        rep["summary"] = {"total": 1, "passed": 0, "failed": 1}
        with pytest.raises(ValueError):
            validate_report(rep)

    def test_non_object_summary_rejected(self):
        rep = build_report(self._sample())
        rep["summary"] = []
        with pytest.raises(ValueError):
            validate_report(rep)

    def test_to_dict_uses_pass_key(self):
        d = CheckResult("x", "exact", True, {}, 1).to_dict()
        assert d["pass"] is True and "passed" not in d


class TestReportFieldTypes:
    """bool is an int subclass, so a type test by isinstance lets True through."""

    def _report(self):
        return build_report([CheckResult("alpha", "exact", True, {"residual": "0"}, 1)])

    def test_boolean_samples_rejected(self):
        rep = self._report()
        rep["checks"][0]["samples"] = True
        with pytest.raises(ValueError):
            validate_report(rep)

    @pytest.mark.parametrize("key", ["total", "passed"])
    def test_boolean_summary_count_rejected(self, key):
        rep = self._report()
        rep["summary"][key] = True  # == 1, the right count
        with pytest.raises(ValueError):
            validate_report(rep)

    def test_boolean_failed_count_rejected(self):
        rep = self._report()
        rep["summary"]["failed"] = False  # == 0, the right count
        with pytest.raises(ValueError):
            validate_report(rep)

    @pytest.mark.parametrize("name", [None, 7, ["alpha"]])
    def test_non_string_name_rejected(self, name):
        rep = self._report()
        rep["checks"][0]["name"] = name
        with pytest.raises(ValueError):
            validate_report(rep)

    @pytest.mark.parametrize("timestamp", [None, 0, 1.7e9])
    def test_non_string_timestamp_rejected(self, timestamp):
        rep = self._report()
        rep["timestamp"] = timestamp
        with pytest.raises(ValueError):
            validate_report(rep)


class TestValidateReportMessages:
    """One case per rejection of validate_report, each with its message."""

    def _report(self):
        return build_report([CheckResult("alpha", "exact", True, {"residual": "0"}, 1)])

    def test_a_report_that_is_not_a_dict(self):
        with pytest.raises(ValueError, match="^report must be an object$"):
            validate_report([])

    def test_a_wrong_schema_version(self):
        rep = self._report()
        rep["schema_version"] = "2"
        with pytest.raises(ValueError, match="^unsupported schema_version$"):
            validate_report(rep)

    def test_checks_that_are_not_a_list(self):
        rep = self._report()
        rep["checks"] = {}
        with pytest.raises(ValueError, match="^checks must be a list$"):
            validate_report(rep)

    @pytest.mark.parametrize("key", ["name", "kind", "pass", "detail", "samples"])
    def test_a_check_missing_a_key(self, key):
        rep = self._report()
        del rep["checks"][0][key]
        with pytest.raises(ValueError, match=f"^check missing key: {key}$"):
            validate_report(rep)

    @pytest.mark.parametrize("value", [1, 0, "true", None])
    def test_a_pass_that_is_not_a_bool(self, value):
        rep = self._report()
        rep["checks"][0]["pass"] = value
        with pytest.raises(ValueError, match="^pass must be boolean$"):
            validate_report(rep)

    @pytest.mark.parametrize("value", [None, [], "0"])
    def test_a_detail_that_is_not_a_dict(self, value):
        rep = self._report()
        rep["checks"][0]["detail"] = value
        with pytest.raises(ValueError, match="^detail must be an object$"):
            validate_report(rep)


class TestVerifyFailurePath:
    def test_failing_check_exits_one(self, capsys, monkeypatch):
        def broken():
            return CheckResult("sin_q_equals_one", "numeric", False,
                               {"max_discrepancy": 1.0, "bound": 0.0}, 1)

        monkeypatch.setattr(identities, "_sin_q_check", broken)
        rc = cli.main(["verify", "--suite", "numeric", "--samples", "120"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out

    def test_all_suite_total_counts_registered_checks(self, capsys):
        rc = cli.main(["verify", "--samples", "120", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        expected = len(cli.exact_checks(41)) + len(cli.numeric_checks(120, 0))
        assert payload["summary"]["total"] == expected


class TestColorControl:
    def test_env_var_disables_color(self, monkeypatch):
        monkeypatch.setenv("GEOMFREE_NO_COLOR", "1")
        assert cli._mark(True) == "PASS"
        assert cli._mark(False) == "FAIL"


class TestDegreeBudget:
    def test_sign_certification_budget_exhaustion(self, monkeypatch):
        from geomfree import constants as constants_mod
        # shrink the budget so the float-precision neighborhood of Q,
        # where |cos| ~ 6e-17, is no longer decidable
        monkeypatch.setattr(constants_mod, "_MAX_TERMS", 8)
        q = shared_table().q
        with pytest.raises(ToleranceTooTight):
            _certified_sign(*q.as_integer_ratio())
