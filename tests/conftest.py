import pytest

from mr2ct import RunConfig, default_phantom_spec, generate_phantom


def fast_config(**overrides) -> RunConfig:
    """Small-but-real configuration for pipeline-level tests."""
    base = dict(
        order="first",
        j_candidates=(1, 2),
        em_restarts=2,
        em_max_iter=150,
        max_splits=16,
        min_leaf=5,
        trees=5,
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="session")
def small_spec():
    return default_phantom_spec(dims=(14, 14, 14))


@pytest.fixture(scope="session")
def small_cohort(small_spec):
    return generate_phantom(small_spec, n_patients=3, seed=42)


@pytest.fixture(scope="session")
def small_datasets(small_cohort):
    return [item.dataset for item in small_cohort]
