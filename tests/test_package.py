import k3nodal


def test_all_lists_exactly_the_public_objects_the_package_binds():
    bound = {
        name
        for name, value in vars(k3nodal).items()
        if not name.startswith("_") and getattr(value, "__module__", "").startswith("k3nodal.")
    }
    assert len(k3nodal.__all__) == len(set(k3nodal.__all__))
    assert set(k3nodal.__all__) == bound
