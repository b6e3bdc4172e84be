"""Dataset ingestion, the class-removal OOD protocol, and the synthetic
generators (noise, constant, out-of-domain, smoothness ladder, two moons)."""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import itertools
import json
import math
import mmap
import os
import uuid
import zipfile
from dataclasses import dataclass

import numpy as np

from .models import ModelSpec, _usable_cpus, classifier_embed
from .rng import stream


class DataError(Exception):
    pass


@dataclass
class LabeledTable:
    features: np.ndarray
    labels: np.ndarray | None = None
    source: str = ""

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if not np.all(np.isfinite(self.features)):
            raise DataError("non-finite features after ingestion")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if len(self.labels) != len(self.features):
                raise DataError("label / feature length mismatch")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def take(self, idx) -> "LabeledTable":
        return LabeledTable(
            np.take(self.features, idx, axis=0),
            None if self.labels is None else np.take(self.labels, idx),
            self.source,
        )


@dataclass
class SplitBundle:
    id_train: LabeledTable
    id_val: LabeledTable
    id_test: LabeledTable
    ood_val: LabeledTable
    ood_test: LabeledTable

    def parts(self) -> dict[str, LabeledTable]:
        """The five splits by field name, in field order."""
        return {
            "id_train": self.id_train,
            "id_val": self.id_val,
            "id_test": self.id_test,
            "ood_val": self.ood_val,
            "ood_test": self.ood_test,
        }


_CACHE_VERSION = 3

# Bytes per piece of a CSV file that its cache key hashes apart
_HASH_PIECE = 8 << 20


def load_csv(path: str, label_column: str | None = None) -> LabeledTable:
    """CSV with a header row, skipping empty lines and lines starting with ``#``;
    the label column (if named) may be integer or categorical. Rows numpy cannot
    parse, or whose cell count is not the header's, abort with their line numbers.

    A parsed table is kept beside the file in ``<path>.ebmlab-cache.npz``, keyed
    by the cache version, numpy's version, ``label_column``, the piece size and
    ``_file_sha256`` of the file's bytes; a later call with the same key reads
    it instead of parsing.
    The cache never changes a result or an error: a sidecar that is missing,
    unreadable or keyed otherwise is parsed over, and one that cannot be
    written is skipped.
    A file that is not UTF-8 text, a directory or unreadable is a
    ``DataError``; a missing one stays a ``FileNotFoundError``."""
    sidecar = f"{path}.ebmlab-cache.npz"
    try:
        digest = _file_sha256(path)
        key = json.dumps([_CACHE_VERSION, np.__version__, label_column, _HASH_PIECE, digest])
        cached = _read_cache(sidecar, key, label_column)
        if cached is not None:
            return LabeledTable(*cached, source=path)
        table = _parse_csv(path, label_column)
        if _file_sha256(path) == digest:  # the bytes parsed are the bytes keyed
            _write_cache(sidecar, key, table)
        return table
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    except (IsADirectoryError, PermissionError) as exc:
        raise DataError(f"{path}: {exc.strerror}") from None


def _file_sha256(path: str) -> str:
    """The sha256 of the sha256 digests of the file's consecutive
    ``_HASH_PIECE``-byte pieces, in file order. One piece, or one usable
    CPU, is hashed in this thread; more run on a pool of one thread per
    usable CPU, at most one per piece, joined before this returns (hashlib
    and unbuffered reads release the GIL). With k threads, thread j takes
    every k-th piece from piece j. The digest does not depend on k."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
    starts = range(0, size, _HASH_PIECE)
    digests = [b""] * len(starts)

    def run(mine):
        buf = memoryview(bytearray(1 << 18))  # one buffer for each thread's pieces
        for i in mine:
            h, left = hashlib.sha256(), _HASH_PIECE
            with open(path, "rb", buffering=0) as fh:
                fh.seek(starts[i])
                while left and (n := fh.readinto(buf[:min(left, len(buf))])):
                    h.update(buf[:n])
                    left -= n
            digests[i] = h.digest()

    k = min(_usable_cpus(), len(starts))
    if k <= 1:
        run(range(len(starts)))
    else:
        # imported here, as it loads logging, like models._hidden_blocks
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(k) as pool:
            for worker in [pool.submit(run, range(j, len(starts), k)) for j in range(k)]:
                worker.result()
    return hashlib.sha256(b"".join(digests)).hexdigest()


def _read_cache(sidecar: str, key: str, label_column: str | None):
    """(features, labels) from a sidecar holding ``key``, else None. Object
    arrays are refused, never unpickled."""
    try:
        with open(sidecar, "rb") as fh:  # closed however np.load ends
            npz = np.load(fh, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):
                return None
            with npz:
                if str(npz["key"]) != key:
                    return None
                if label_column is None:
                    return npz["features"], None
                return npz["features"], npz["labels"]
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None


def _write_cache(sidecar: str, key: str, table: LabeledTable):
    """Write the sidecar to a new temporary file in its directory (with the
    umask's mode) and rename it into place. A failed write is ignored and
    leaves no temporary file."""
    tmp = f"{sidecar}.{uuid.uuid4().hex}.tmp"
    arrays = {"key": np.array(key), "features": table.features}
    if table.labels is not None:
        arrays["labels"] = table.labels
    try:
        with open(tmp, "xb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, sidecar)
    except OSError:
        pass
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)  # gone already after a successful rename


# Rows per np.loadtxt call of the CSV parse
_CHUNK_ROWS = 1 << 14


def _parse_csv(path: str, label_column: str | None) -> LabeledTable:
    """The table of a CSV file, parsed ``_CHUNK_ROWS`` rows at a time into
    preallocated feature columns and label codes. Every chunk is one
    ``np.loadtxt`` call with the same settings, reading on from where the
    last stopped in one iterator over the file's data rows, so numpy alone
    decides where a row, or a quoted cell spanning lines, ends."""
    # "\r\n" and "\r" read as "\n"; a leading byte-order mark is dropped
    with open(path, "r", encoding="utf-8-sig") as fh:
        n_lines = sum(1 for _ in fh)  # decodes the whole file before any check
        fh.seek(0)
        lines = filter(_is_row, fh)
        header = next(lines, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        header = next(csv.reader([header]))
        if label_column is not None and label_column not in header:
            raise DataError(f"{path}: missing label column {label_column!r}")
        if header == [label_column]:
            raise DataError(f"{path}: no feature columns")
        label_idx = header.index(label_column) if label_column is not None else None
        dtype = [(f"c{i}", object if i == label_idx else np.float64) for i in range(len(header))]
        parse = functools.partial(np.loadtxt, dtype=dtype, delimiter=",", quotechar='"',
                                  comments=None, ndmin=1)
        columns = [f"c{i}" for i in range(len(header)) if i != label_idx]
        # in an anonymous map, not on the heap: once the table is split and
        # freed, these pages go back to the system instead of leaving a
        # table-sized hole for later small allocations to split
        features = np.frombuffer(mmap.mmap(-1, n_lines * len(columns) * 8))
        features = features.reshape(n_lines, len(columns))
        codes = np.empty(n_lines, dtype=np.int64)  # labels numbered as they first appear
        seen: dict[str, int] = {}
        n = 0
        # a call on no rows would warn that the input contained no data
        while (first := next(lines, None)) is not None:
            try:
                table = parse(itertools.chain([first], lines), max_rows=_CHUNK_ROWS)
            except ValueError:
                raise _parse_error(path, parse) from None
            end = n + len(table)
            if end > n_lines:
                raise DataError(f"{path}: the file changed while it was read")
            for j, column in enumerate(columns):
                features[n:end, j] = table[column]
            if label_idx is not None:
                distinct, inverse = np.unique(table[f"c{label_idx}"].astype(str),
                                              return_inverse=True)
                seen_codes = [seen.setdefault(name, len(seen)) for name in distinct.tolist()]
                codes[n:end] = np.array(seen_codes)[inverse]
            n = end
    if not n:
        raise DataError(f"{path}: no data rows")
    labels = None
    if label_idx is not None:
        names, inverse = np.unique(np.array(list(seen)), return_inverse=True)
        try:
            names = np.array([int(name) for name in names])
        except ValueError:
            pass  # categorical labels
        labels = np.unique(names, return_inverse=True)[1][inverse][codes[:n]]
    return LabeledTable(features[:n], labels, source=path)


def _is_row(line: str) -> bool:
    """Whether a line of a CSV file is its header or a data row: neither
    blank nor a comment, which starts with ``#`` or ``"#``."""
    return line != "\n" and not line.startswith(("#", '"#'))


def _parse_error(path: str, parse) -> DataError:
    """The error for a file with a row ``parse`` rejects, found over all its
    data rows at once, as a single ``parse`` call over them would find it."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        kept = [(number, line) for number, line in enumerate(fh, start=1) if _is_row(line)]
    numbers, rows = [number for number, _ in kept[1:]], [line for _, line in kept[1:]]
    try:
        parse(rows)
    except ValueError as exc:
        bad_lines = _rejected_lines(parse, rows, numbers)
        return DataError(f"{path}: unparseable rows at lines {bad_lines}" if bad_lines
                         else f"{path}: {exc}")
    return DataError(f"{path}: the file changed while it was read")


def _rejected_lines(parse, rows: list[str], numbers: list[int]) -> list[int]:
    """Line numbers of the rows ``parse`` rejects, found by halving rejected blocks."""
    try:
        parse(rows)
        return []
    except ValueError:
        if len(rows) == 1:
            return numbers
    mid = len(rows) // 2
    return (_rejected_lines(parse, rows[:mid], numbers[:mid])
            + _rejected_lines(parse, rows[mid:], numbers[mid:]))


def write_csv(path: str, table: LabeledTable, provenance: str = ""):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if provenance:
            fh.write(f"# {provenance}\n")
        writer = csv.writer(fh)
        cols = [f"x{i}" for i in range(table.dim)]
        if table.labels is not None:
            cols.append("label")
        writer.writerow(cols)
        for i in range(table.n):
            row = [repr(float(v)) for v in table.features[i]]
            if table.labels is not None:
                row.append(str(int(table.labels[i])))
            writer.writerow(row)


def class_removal_split(
    table: LabeledTable,
    removed_classes,
    val_frac: float = 0.1,
    id_fracs=(0.7, 0.1, 0.2),
    seed: int = 0,
) -> SplitBundle:
    """Removed classes become the OOD side (``val_frac`` of them for model
    selection, the rest as OOD test), named ``removed-classes``; the
    remaining classes are split into train/val/test and relabeled
    contiguously."""
    if table.labels is None:
        raise DataError("class removal requires labels")
    removed = sorted(set(int(c) for c in removed_classes))
    present = np.unique(table.labels).tolist()
    for c in removed:
        if c not in present:
            raise DataError(f"class {c} not present")
    kept = [c for c in present if c not in removed]
    if not kept:
        raise DataError("cannot remove every class")
    rng = stream(seed, "split")

    ood_mask = np.isin(table.labels, removed)
    ood_idx = rng.permutation(np.where(ood_mask)[0])
    n_val = round(val_frac * ood_idx.size)
    ood_val_idx, ood_test_idx = ood_idx[:n_val], ood_idx[n_val:]

    id_idx = rng.permutation(np.where(~ood_mask)[0])
    n_id = id_idx.size
    n_tr = round(id_fracs[0] * n_id)
    n_va = round(id_fracs[1] * n_id)
    tr_idx, va_idx, te_idx = id_idx[:n_tr], id_idx[n_tr:n_tr + n_va], id_idx[n_tr + n_va:]

    def ood_part(idx):
        return LabeledTable(np.take(table.features, idx, axis=0), np.take(table.labels, idx),
                            "removed-classes")

    def id_part(idx):
        part = table.take(idx)
        part.labels = np.searchsorted(kept, part.labels)
        return part

    return SplitBundle(
        id_train=id_part(tr_idx),
        id_val=id_part(va_idx),
        id_test=id_part(te_idx),
        ood_val=ood_part(ood_val_idx),
        ood_test=ood_part(ood_test_idx),
    )


def make_noise(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Half standard Gaussian rows, half uniform(-1, 1) rows, shuffled.
    An odd count gives the Gaussian part the extra row."""
    n_gauss = math.ceil(n / 2)
    gauss = rng.normal(size=(n_gauss, dim))
    unif = rng.uniform(-1.0, 1.0, size=(n - n_gauss, dim))
    out = np.concatenate([gauss, unif], axis=0)
    return out[rng.permutation(n)]


def make_constant(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Each row filled with a single scalar drawn from uniform(-1, 1)."""
    values = rng.uniform(-1.0, 1.0, size=n)
    return np.repeat(values[:, None], dim, axis=1)


def make_oodomain(features: np.ndarray, mode: str = "tabular") -> np.ndarray:
    """Inputs presented in an un-normalized numeric range.

    Tabular: standardized features scaled by 255 (a deliberate artifact
    convention; images define the [0, 255] range, tabular data does not).
    Image: [0, 1] pixels mapped to whole numbers in [0, 255].
    """
    features = np.asarray(features, dtype=np.float64)
    if mode == "tabular":
        return features * 255.0
    if mode == "image":
        return np.round(features * 255.0)
    raise DataError(f"unknown oodomain mode {mode!r}")


def make_smoothness(n: int, side: int, pool_size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform pixel noise, average-pooled, nearest-neighbor upsampled back
    to side x side, flattened. Pool size must divide the side."""
    if side % pool_size != 0:
        raise DataError(f"pool size {pool_size} does not divide side {side}")
    imgs = rng.uniform(0.0, 1.0, size=(n, side, side))
    m = side // pool_size
    pooled = imgs.reshape(n, m, pool_size, m, pool_size).mean(axis=(2, 4))
    up = np.repeat(np.repeat(pooled, pool_size, axis=1), pool_size, axis=2)
    return up.reshape(n, side * side)


def make_two_moons(n: int, noise_std: float, rng: np.random.Generator) -> LabeledTable:
    """Two interleaved half circles of n/2 points each."""
    n_outer = n // 2
    n_inner = n - n_outer
    t_outer = rng.uniform(0.0, math.pi, size=n_outer)
    t_inner = rng.uniform(0.0, math.pi, size=n_inner)
    outer = np.stack([np.cos(t_outer), np.sin(t_outer)], axis=1)
    inner = np.stack([1.0 - np.cos(t_inner), 0.5 - np.sin(t_inner)], axis=1)
    feats = np.concatenate([outer, inner], axis=0)
    if noise_std > 0:
        feats = feats + noise_std * rng.normal(size=feats.shape)
    labels = np.concatenate([np.zeros(n_outer, dtype=np.int64), np.ones(n_inner, dtype=np.int64)])
    perm = rng.permutation(n)
    return LabeledTable(feats[perm], labels[perm], source="two-moons")


MAX_OOD_ROUNDS = 100


# Elements per temporary of the OOD distance pass, about 256 KiB of float64
_DIST_BLOCK = 1 << 15


def _nearest_distance(cand: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distance from each 2-D candidate to its nearest point, summing the
    squares one coordinate at a time, as the sum over the last axis of the
    (len(cand), len(points), 2) difference tensor does, without that tensor.
    Candidates run in blocks of rows through two buffers of at most
    ``_DIST_BLOCK`` items each; a candidate's distance is a row-wise min of
    elementwise operations, so the block size does not change its bytes."""
    rows = max(_DIST_BLOCK // len(points), 1)
    buffers = np.empty((2, min(rows, len(cand)), len(points)))
    out = np.empty(len(cand))
    for a in range(0, len(cand), rows):
        block = cand[a:a + rows]
        d2, diff = buffers[:, :len(block)]
        np.subtract(block[:, 0:1], points[:, 0], out=d2)
        np.subtract(block[:, 1:2], points[:, 1], out=diff)
        d2 *= d2
        diff *= diff
        d2 += diff
        np.sqrt(d2.min(axis=1), out=out[a:a + len(block)])
    return out


def two_moons_split(n: int, noise_std: float, margin: float, exclusion: float,
                    seed: int) -> SplitBundle:
    """Two moons split 70/10/20 into train/val/test, with uniform OOD parts
    drawn from the data's bounding box grown by ``margin``.

    Uniform points landing on the moons are not out-of-distribution, so
    candidates closer than ``exclusion`` to a data point are redrawn, for
    at most ``MAX_OOD_ROUNDS`` rounds.
    """
    rng = stream(seed, "data")
    table = make_two_moons(n, noise_std, rng)
    idx = rng.permutation(n)
    n_tr, n_va = round(0.7 * n), round(0.1 * n)
    lo = table.features.min(axis=0) - margin
    hi = table.features.max(axis=0) + margin
    n_ood = n - n_tr - n_va
    want = n_ood + max(n_ood // 5, 10)
    chunks = []
    got = 0
    for _ in range(MAX_OOD_ROUNDS):
        cand = rng.uniform(lo, hi, size=(want, table.dim))
        if exclusion > 0:
            cand = cand[_nearest_distance(cand, table.features) >= exclusion]
        chunks.append(cand)
        got += len(cand)
        if got >= want:
            break
    else:
        raise DataError(f"only {got} of {want} uniform OOD points lie {exclusion} away from "
                        f"the data after {MAX_OOD_ROUNDS} rounds; lower ood_exclusion_radius")
    ood = np.concatenate(chunks)[:want]
    return SplitBundle(
        id_train=table.take(idx[:n_tr]),
        id_val=table.take(idx[n_tr:n_tr + n_va]),
        id_test=table.take(idx[n_tr + n_va:]),
        ood_val=LabeledTable(ood[n_ood:], source="uniform-noise"),
        ood_test=LabeledTable(ood[:n_ood], source="uniform-noise"),
    )


def standardize(bundle: SplitBundle) -> SplitBundle:
    """z-score every part's features in place with id_train statistics (std
    floored at 1e-8), so a split is standardized without a second copy of
    the table; returns a bundle over the same arrays, checked finite."""
    mean = bundle.id_train.features.mean(axis=0)
    std = np.maximum(bundle.id_train.features.std(axis=0), 1e-8)

    def tf(part: LabeledTable) -> LabeledTable:
        part.features -= mean
        part.features /= std
        return LabeledTable(part.features, part.labels, part.source)  # checks them finite

    return SplitBundle(**{k: tf(part) for k, part in bundle.parts().items()})


def embed_dataset(spec: ModelSpec, params, bundle: SplitBundle) -> SplitBundle:
    """Map every part through the classifier's penultimate layer."""
    def tf(part: LabeledTable) -> LabeledTable:
        emb = classifier_embed(spec, params, part.features)
        return LabeledTable(emb, part.labels, part.source + ":embedded")

    return SplitBundle(**{k: tf(part) for k, part in bundle.parts().items()})
