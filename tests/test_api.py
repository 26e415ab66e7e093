"""The package's public names."""
import acbm


def test_every_public_name_resolves():
    assert len(set(acbm.__all__)) == len(acbm.__all__)
    for name in acbm.__all__:
        assert getattr(acbm, name, None) is not None, name
