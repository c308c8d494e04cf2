"""The lab's two text formats: CSV tables, and ``key=value`` lines (a
checkpoint's config section, a command's ``config.txt`` and
``entropy.txt``).
"""

from __future__ import annotations

import csv


def write_csv(path, header, rows):
    """Write a header row then ``rows``, each a sequence of cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def kv_text(pairs):
    """One ``key=value`` line per ``(key, value)`` pair, values as ``str``."""
    return "".join(f"{key}={val}\n" for key, val in pairs)


def parse_kv(text):
    """``{key: value}`` of ``kv_text`` output, later keys winning. Only the
    text's ends are stripped: a blank line or a padded key reaches the caller
    as a key it does not know."""
    return dict(line.partition("=")[::2] for line in text.strip().splitlines())
