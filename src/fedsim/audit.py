"""Run-wide counters for the hard physical-layer assertions.

Frame power and payload bit counts are checked at the point of construction
and violations raise immediately; the counters exist so a test harness can
confirm the checks actually fired during a sweep.
"""

power_checks = 0
budget_checks = 0
violations = 0


def reset() -> None:
    global power_checks, budget_checks, violations
    power_checks = 0
    budget_checks = 0
    violations = 0


def count_power_check(frames: int) -> None:
    global power_checks
    power_checks += frames


def count_budget_check() -> None:
    global budget_checks
    budget_checks += 1


def count_violation() -> None:
    global violations
    violations += 1
