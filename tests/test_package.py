import inspect

import scalesq


def test_exported_names_are_distinct_objects():
    # one object per public name: a deleted twin must not return as an alias
    exported = {n: v for n, v in vars(scalesq).items() if not n.startswith("_") and not inspect.ismodule(v)}
    seen: dict[int, str] = {}
    for name, obj in exported.items():
        assert id(obj) not in seen, f"{name} is {seen[id(obj)]}"
        seen[id(obj)] = name
