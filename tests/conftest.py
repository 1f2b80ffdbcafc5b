import pytest
from hypothesis import HealthCheck, Phase, settings

import lamconn

# lamconn binds a public name in the package on its first read.  Read each one
# now, before a test or a --mutant install patches its module, so that a patch
# in place at a first read is not left bound in the package after its undo.
for _name in lamconn.__all__:
    getattr(lamconn, _name)

settings.register_profile(
    "exact",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")
# Under --mutant many property tests fail, and shrinking each failure can take
# minutes; the kill shows as well without it.
settings.register_profile(
    "exact-no-shrink",
    settings.get_profile("exact"),
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)


def pytest_addoption(parser):
    parser.addoption(
        "--mutant",
        metavar="NAME",
        help="install the entry NAME of test_mutants.MUTANTS for the whole session",
    )


def pytest_configure(config):
    name = config.getoption("mutant")
    if name is not None:
        # before test_mutants imports the test modules, so that every @settings sees it
        settings.load_profile("exact-no-shrink")
        import test_mutants

        if name not in test_mutants.ENTRY:
            raise pytest.UsageError(f"--mutant: no entry {name!r} in test_mutants.MUTANTS")


@pytest.fixture(scope="session", autouse=True)
def mutant(request):
    """The entry named by --mutant, installed by its own install until the session ends."""
    name = request.config.getoption("mutant")
    with pytest.MonkeyPatch.context() as monkeypatch:
        if name is not None:
            import test_mutants

            test_mutants.ENTRY[name].install(monkeypatch)
        yield
