from hypothesis import settings

# generated cases integrate disks, so their run time varies with the drawn
# geometry; no per-example deadline, each test keeps its own max_examples
settings.register_profile("vcselink", deadline=None)
settings.load_profile("vcselink")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
