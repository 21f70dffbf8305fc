import inspect

import patchmix


def test_all_names_resolve():
    missing = [name for name in patchmix.__all__ if not hasattr(patchmix, name)]
    assert missing == []


def test_all_lists_every_imported_public_name():
    imported = {
        name
        for name, value in vars(patchmix).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert imported - set(patchmix.__all__) == set()
    assert len(patchmix.__all__) == len(set(patchmix.__all__))
