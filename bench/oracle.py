"""Grade one CLI job against its expected outcome.

A job fails on a wrong exit code, a traceback, a report value the oracle
rejects, or report bytes that differ from the job's first run.
"""

import math
import re
from fractions import Fraction

FLOAT_TOL = 1e-6
_FLOAT_TOKEN = re.compile(r"^-?\d+\.\d*(e-?\d+)?$|^-?\d+e-?\d+$")
_SQRT = re.compile(r"^sqrt\((\d+(?:/\d+)?)\)$")


def parse_report(text):
    """Header `key = value` pairs, plus the number of rows of [classes]."""
    values = {}
    section = None
    rows = {}
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            rows[section] = -1          # the first row is the column header
            continue
        if section is None and " = " in line:
            key, _, value = line.partition(" = ")
            values.setdefault(key, value)
        elif section is not None:
            rows[section] += 1
    if "classes" in rows:
        values["classes"] = rows["classes"]
    return values


def exact_value(token):
    """Float value of an exact radius token `p/q` or `sqrt(p/q)`."""
    m = _SQRT.match(token)
    if m:
        return math.sqrt(Fraction(m.group(1)))
    return float(Fraction(token))


def grade(job, exit_code, stdout, stderr, first_stdout=None):
    """List of reasons the job failed; empty when it passed."""
    problems = []
    expect = job.expect
    if "Traceback" in stderr:
        problems.append("traceback: " + stderr.strip().splitlines()[-1])
    if exit_code != expect.get("exit", 0):
        problems.append(f"exit code {exit_code}, expected {expect.get('exit', 0)}")
    if first_stdout is not None and stdout != first_stdout:
        problems.append("report bytes differ from the first run")
    report = parse_report(stdout)
    for key, want in expect.items():
        if key == "exit":
            continue
        got = report.get(key)
        if got is None:
            problems.append(f"{key} missing")
        elif key in ("r", "R") and job.float_mode:
            if not _FLOAT_TOKEN.match(got):
                problems.append(f"{key} = {got} is not a float")
            elif abs(float(got) - exact_value(want)) > FLOAT_TOL:
                problems.append(f"{key} = {got}, expected {want}")
        elif str(got) != str(want):
            problems.append(f"{key} = {got}, expected {want}")
    return problems
