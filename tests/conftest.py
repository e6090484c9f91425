import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    from deduce_ray.raytune import tune_data_context

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
        )
    # the engine's entry surfaces tune the DataContext themselves; tests
    # that build raw ray.data datasets and hand them to ops need the same
    # context (tensor-extension cast off above all)
    tune_data_context()
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def engine():
    """Full engine; its lexicon (cached across runs) resolves on demand."""
    from deduce_ray.engine import DeduceEngine

    return DeduceEngine()
