"""The report's "Known divergences" prose is derived from section data."""

import json
from pathlib import Path

from repro.experiments.results import SectionFailure, SectionResult
from repro.experiments.runner import divergences, write_report

REFERENCE = Path(__file__).resolve().parents[2] / "results" / "reference"


def reference_results():
    return [
        SectionResult.from_dict(json.loads(path.read_text()))
        for path in sorted(REFERENCE.glob("*.json"))
        if path.name != "tolerances.json"
    ]


def test_report_from_the_reference_quotes_its_data(tmp_path):
    report = tmp_path / "EXPERIMENTS.md"
    write_report(reference_results(), str(report))
    text = " ".join(report.read_text().split("## Known divergences")[1].split())
    # Figure 4 dips twice and ends at 6.72 %, below the paper's 7.6 %.
    assert "monotonic: it dips at 4 B (5.250 % < 5.280 %) and 7 B" in text
    assert "(6.716 % < 6.724 %)" in text
    assert "ends at 6.72 % at 7 B vs the paper's 7.6 %" in text
    assert "remains monotonic" not in text
    assert "starts at 4.77 % at 1 B vs the paper's 3.0 %" in text
    # Figure 10 and Figure 11 quote the measured averages.
    assert "**Figure 10** averages 1.58 % here vs 0.83 %" in text
    assert "lowest slowdown is hmmer (paper: hmmer)" in text
    assert "opportunistic+CFORM averages 4.88 % vs 7.9 %" in text
    assert "~6 %" not in text


def test_a_monotonic_curve_is_called_monotonic():
    (fig04,) = [r for r in reference_results() if r.name == "fig04"]
    data = dict(fig04.data)
    data["averages"] = {size: int(size) / 100 for size in data["averages"]}
    text = divergences([SectionResult("fig04", "Figure 4", data, "")])
    assert "The curve is monotonic, and ends at 7.00 %" in " ".join(text.split())


def test_bullets_follow_the_sections_that_ran():
    results = {r.name: r for r in reference_results()}
    only_fig11 = divergences([results["fig11"], results["table3"]])
    assert "Figure 11" in only_fig11
    assert "Figure 4" not in only_fig11 and "Figure 10" not in only_fig11
    assert "Table 2/7" not in only_fig11
    failed = SectionFailure(name="fig04", title="Figure 4", error="boom")
    assert divergences([failed, results["table3"]]) == ""
