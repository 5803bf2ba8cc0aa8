def pytest_configure(config):
    config.addinivalue_line("markers", "slow: runs the traced benchmark on every workload")
