import shutil
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

from canopydw.fixtures import build_reference_warehouse
from canopydw.service import ServiceConfig, make_server


@pytest.fixture(scope="session")
def reference_root(tmp_path_factory) -> Path:
    """The 238-image reference warehouse, built once per session (read-only)."""
    root = tmp_path_factory.mktemp("reference") / "wh"
    build_reference_warehouse(root)
    return root


@pytest.fixture
def reference_copy(reference_root, tmp_path) -> Path:
    """A private mutable copy of the reference warehouse."""
    root = tmp_path / "wh"
    shutil.copytree(reference_root, root)
    return root


@contextmanager
def serving(root: Path, **config_kwargs):
    """A live service bound to an ephemeral port; yields the server."""
    config = ServiceConfig(bind_address="127.0.0.1:0", warehouse_root=root, **config_kwargs)
    server = make_server(config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@contextmanager
def running_server(root: Path, **config_kwargs):
    """A live service bound to an ephemeral port; yields its base URL."""
    with serving(root, **config_kwargs) as server:
        yield f"http://{server.bound_address}"
