from tier1_time import summarize

OUTPUT = """\
........................................................................ [ 97%]
.F.E                                                                     [100%]
============================= slowest 10 durations =============================
17.85s call     tests/test_acceptance.py::test_criterion_04_prior_ratio_weighting_is_biased
6.11s setup    tests/test_acceptance.py::test_criterion_03_pmc_posterior_correctness
0.50s call     tests/test_cli.py::test_a_run_config_error_names_the_file[run]
(7 durations < 0.005s hidden.  Use -vv to show these durations.)
=========================== short test summary info ============================
FAILED tests/test_kernel.py::test_x - assert 1 == 2
ERROR tests/test_kernel.py::test_y - ValueError: in 3.5s
352 passed, 1 failed, 1 error in 97.14s (0:01:37)
"""


def test_summarize_reads_the_counts_and_the_slowest_phases():
    got = summarize(OUTPUT.splitlines())
    assert (got["passed"], got["failed"], got["errors"]) == (352, 1, 1)
    assert got["slowest"] == [
        {"seconds": 17.85, "phase": "call",
         "test": "tests/test_acceptance.py::test_criterion_04_prior_ratio_weighting_is_biased"},
        {"seconds": 6.11, "phase": "setup",
         "test": "tests/test_acceptance.py::test_criterion_03_pmc_posterior_correctness"},
        {"seconds": 0.5, "phase": "call",
         "test": "tests/test_cli.py::test_a_run_config_error_names_the_file[run]"},
    ]


def test_summarize_reads_a_run_with_no_failure():
    got = summarize(["355 passed in 97.14s (0:01:37)"])
    assert (got["passed"], got["failed"], got["errors"], got["slowest"]) == (355, 0, 0, [])
