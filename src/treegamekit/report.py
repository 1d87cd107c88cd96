"""Small pass/fail records shared by the verification entry points, and
the settings of the verify suite and the census cap, which the CLI reads
without loading the suite or the game."""

from __future__ import annotations

from typing import NamedTuple

# Census cap unless a caller raises it: n = 20 takes about 0.1 s.
CENSUS_LIMIT = 20


class VerifyConfig(NamedTuple):
    n: int = 7
    seed: int = 0
    samples: int = 200
    trials: int = 20000
    census_limit: int = CENSUS_LIMIT


class CheckResult(NamedTuple):
    name: str
    passed: bool
    details: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"CHECK {self.name}: {status}" + (f" ({self.details})" if self.details else "")
