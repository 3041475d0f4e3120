"""Regenerate the committed fixture files under fixtures/.

Run from the repository root (no install needed, the checkout's `src/` is
put on the path):

    python3 tools/make_fixtures.py
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent.parent


def main() -> None:
    sys.path.insert(0, str(HERE / "src"))
    from nchodge import BUILTIN_NAMES, builtin_atlas, save_atlas

    out = HERE / "fixtures"
    out.mkdir(exist_ok=True)
    for name in BUILTIN_NAMES:
        path = out / f"{name}.json"
        save_atlas(builtin_atlas(name), path)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
