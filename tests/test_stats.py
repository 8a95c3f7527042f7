"""Cross-project inference tests: co-change, twin analysis, the series loader."""

import pytest

from ccp_miner.errors import InputError
from ccp_miner.stats import (
    co_change,
    load_series_csv,
    twin_analysis,
)


def points(**year_values):
    return {int(y[1:]): v for y, v in year_values.items()}


class TestCoChange:
    def test_always_co_improving(self):
        i = {"a": points(y2018=0.5, y2019=0.3), "b": points(y2018=0.6, y2019=0.2)}
        j = {"a": points(y2018=10.0, y2019=12.0), "b": points(y2018=9.0, y2019=11.0)}
        report = co_change(i, j, improvement_sign_i=-1, improvement_sign_j=1)
        assert report.n_pairs == 2
        assert report.match_rate == 1.0
        assert report.precision == 1.0
        assert report.base_rate == 1.0
        assert report.lift == pytest.approx(0.0)

    def test_hand_counted_mixed_events(self):
        # events (imp_i, imp_j): (T,T), (T,F), (F,T), (F,F)
        i = {
            "a": points(y2018=0.5, y2019=0.3),
            "b": points(y2018=0.5, y2019=0.3),
            "c": points(y2018=0.3, y2019=0.5),
            "d": points(y2018=0.3, y2019=0.5),
        }
        j = {
            "a": points(y2018=1.0, y2019=2.0),
            "b": points(y2018=2.0, y2019=1.0),
            "c": points(y2018=1.0, y2019=2.0),
            "d": points(y2018=2.0, y2019=1.0),
        }
        report = co_change(i, j, improvement_sign_i=-1, improvement_sign_j=1)
        assert report.n_pairs == 4
        assert report.match_rate == 0.5
        assert report.precision == 0.5
        assert report.base_rate == 0.5
        assert report.lift == pytest.approx(0.0)

    def test_lift_symmetric(self):
        i = {
            "a": points(y2018=0.5, y2019=0.3),
            "b": points(y2018=0.5, y2019=0.3),
            "c": points(y2018=0.3, y2019=0.5),
        }
        j = {
            "a": points(y2018=1.0, y2019=2.0),
            "b": points(y2018=2.0, y2019=1.0),
            "c": points(y2018=1.0, y2019=2.0),
        }
        forward = co_change(i, j, improvement_sign_i=-1, improvement_sign_j=1)
        backward = co_change(j, i, improvement_sign_i=1, improvement_sign_j=-1)
        assert forward.lift == pytest.approx(backward.lift, abs=1e-9)

    def test_zero_threshold_is_strict(self):
        # an exact tie is not an improvement under the default policy
        i = {"a": points(y2018=0.5, y2019=0.5), "b": points(y2018=0.5, y2019=0.4)}
        j = {"a": points(y2018=1.0, y2019=1.0), "b": points(y2018=1.0, y2019=1.0)}
        report = co_change(i, j, improvement_sign_i=-1)
        assert report.precision == 0.0  # only b improved on i, j never improved

    def test_positive_threshold_is_inclusive(self):
        # deltas of 0.125 and 0.0625 are exact in binary floating point
        i = {"a": points(y2018=0.5, y2019=0.375), "b": points(y2018=0.5, y2019=0.4375)}
        j = {"a": points(y2018=1.0, y2019=2.0), "b": points(y2018=1.0, y2019=2.0)}
        # a's i-delta equals the threshold and still counts
        report = co_change(i, j, delta_i=0.125, improvement_sign_i=-1)
        assert report.precision == 1.0
        assert report.base_rate == 1.0

    def test_no_overlap_is_an_error(self):
        with pytest.raises(InputError):
            co_change({"a": points(y2018=1.0, y2019=2.0)}, {"b": points(y2018=1.0, y2019=2.0)})


class TestTwinAnalysis:
    def project_pair(self, good=0.1, bad=0.5):
        # lower metric is better (sign -1)
        return {"good": points(y2019=good), "bad": points(y2019=bad)}

    def test_developer_better_in_better_project(self):
        devs = {
            ("ann", "good"): points(y2019=0.1),
            ("ann", "bad"): points(y2019=0.4),
        }
        report = twin_analysis(devs, self.project_pair(), improvement_sign=-1)
        assert report.n_developer_pairs == 1
        assert report.precision == 1.0

    def test_developer_worse_in_better_project(self):
        devs = {
            ("ann", "good"): points(y2019=0.4),
            ("ann", "bad"): points(y2019=0.1),
        }
        report = twin_analysis(devs, self.project_pair(), improvement_sign=-1)
        assert report.precision == 0.0

    def test_tied_projects_do_not_qualify(self):
        devs = {
            ("ann", "good"): points(y2019=0.1),
            ("ann", "bad"): points(y2019=0.4),
        }
        with pytest.raises(InputError):
            twin_analysis(devs, self.project_pair(good=0.3, bad=0.3), improvement_sign=-1)

    def test_project_gap_threshold(self):
        devs = {
            ("ann", "good"): points(y2019=0.1),
            ("ann", "bad"): points(y2019=0.4),
        }
        # gap is 0.4; with an inclusive threshold of 0.5 nothing qualifies
        with pytest.raises(InputError):
            twin_analysis(
                devs, self.project_pair(), delta_project=0.5, improvement_sign=-1
            )

    def test_multiple_developers_mixed(self):
        projects = self.project_pair()
        devs = {
            ("ann", "good"): points(y2019=0.1),
            ("ann", "bad"): points(y2019=0.4),
            ("bob", "good"): points(y2019=0.5),
            ("bob", "bad"): points(y2019=0.2),
        }
        report = twin_analysis(devs, projects, improvement_sign=-1)
        assert report.n_developer_pairs == 2
        assert report.precision == 0.5

    def test_developer_missing_one_project_skipped(self):
        devs = {("ann", "good"): points(y2019=0.1)}
        with pytest.raises(InputError):
            twin_analysis(devs, self.project_pair(), improvement_sign=-1)

class TestLoadSeriesCsv:
    def test_round_values(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("entity,year,value\na,2018,0.5\na,2019,0.25\nb,2018,0.1\n")
        assert load_series_csv(path) == {"a": {2018: 0.5, 2019: 0.25}, "b": {2018: 0.1}}

    def test_duplicate_year_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("entity,year,value\na,2018,0.5\na,2018,0.6\n")
        with pytest.raises(InputError):
            load_series_csv(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("entity,value\na,0.5\n")
        with pytest.raises(InputError):
            load_series_csv(path)


DEVELOPER = ("developer", "project")


class TestLoadDeveloperSeriesCsv:
    def test_round_values(self, tmp_path):
        path = tmp_path / "dev.csv"
        path.write_text("developer,project,year,value\nd1,p1,2019,0.1\nd1,p2,2019,0.5\n")
        assert load_series_csv(path, DEVELOPER) == {
            ("d1", "p1"): {2019: 0.1},
            ("d1", "p2"): {2019: 0.5},
        }

    def test_duplicate_year_rejected(self, tmp_path):
        path = tmp_path / "dev.csv"
        path.write_text(
            "developer,project,year,value\nd1,p1,2019,0.1\nd1,p1,2019,0.9\nd1,p2,2019,0.5\n"
        )
        with pytest.raises(InputError) as caught:
            load_series_csv(path, DEVELOPER)
        message = str(caught.value)
        assert message.startswith(f"{str(path)!r}: ")
        assert "'d1'" in message and "'p1'" in message and "2019" in message

    def test_non_finite_value_names_file_and_line(self, tmp_path):
        path = tmp_path / "dev.csv"
        path.write_text("developer,project,year,value\nd1,p1,2019,0.1\nd1,p2,2019,nan\n")
        with pytest.raises(InputError) as caught:
            load_series_csv(path, DEVELOPER)
        assert str(caught.value) == f"{str(path)!r}: line 3: metric value 'nan' is not finite"
