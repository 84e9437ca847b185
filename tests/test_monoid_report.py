import os
import subprocess
import sys

from conftest import data_path

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "monoid_report.py")


def report(name):
    done = subprocess.run(
        [sys.executable, SCRIPT, data_path(name), "--max-len", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0 and done.stderr == "", done.stderr
    return done.stdout.splitlines()


def test_monoid_report_lists_every_class_language():
    lines = report("fig1.2wt")
    assert "elements: 9" in lines and "aperiodic, index 2" in lines
    samples = [l for l in lines if l.startswith("[") and "] up to 2:" in l]
    assert len(samples) == 9
    assert "[a] up to 2: a aa" in samples and "[aba] up to 2: -" in samples


def test_monoid_report_names_a_periodic_witness():
    assert "not aperiodic, witness [a]" in report("parity.2wt")
