"""Dataset ingestion: IDX files (MNIST) and a synthetic RKHS regression.

MNIST arrives as four IDX files in the directory named by the
``DESCENTLAB_DATA`` environment variable (default ``./data``).  Pixels
are scaled to [0, 1] by dividing by 255 and images flattened to
784-vectors.  Without them, ``make_rkhs_regression`` (the ``rkhs-target``
dataset) stands in: it draws a noiseless member of the Gaussian-kernel
RKHS, which is the regime the infinite-width comparisons assume anyway.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from ..errors import FormatError, InvalidInput
from ..rff import gaussian_kernel
from ..seeding import substream

DATA_DIR_ENV = "DESCENTLAB_DATA"

IDX_MAGIC_LABELS = 0x00000801  # 1-d tensor of unsigned bytes
IDX_MAGIC_IMAGES = 0x00000803  # 3-d tensor of unsigned bytes

# Each role's file under either accepted spelling.
MNIST_FILES = {
    "train_images": ("train-images-idx3-ubyte", "train-images.idx3-ubyte"),
    "train_labels": ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte"),
    "test_images": ("t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"),
    "test_labels": ("t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"),
}


def data_dir() -> str:
    return os.environ.get(DATA_DIR_ENV, "data")


def load_idx(path) -> np.ndarray:
    """Parse an IDX file of unsigned bytes (label vectors or image stacks).

    The header is big-endian: a 4-byte magic (0x801 for 1-d, 0x803 for
    3-d), then one 4-byte count per dimension.  The payload must contain
    exactly the advertised number of bytes.  A file that cannot be
    opened or read is a FormatError too.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FormatError(f"{path}: cannot read: {exc.strerror or exc}") from None
    if len(data) < 4:
        raise FormatError(f"{path}: truncated magic")
    (magic,) = struct.unpack_from(">i", data)
    if magic == IDX_MAGIC_LABELS:
        ndim = 1
    elif magic == IDX_MAGIC_IMAGES:
        ndim = 3
    else:
        raise FormatError(f"{path}: unsupported IDX magic 0x{magic:08x}")
    offset = 4 + 4 * ndim
    if len(data) < offset:
        raise FormatError(f"{path}: truncated dimension header")
    dims = struct.unpack_from(f">{ndim}i", data, 4)
    if any(d < 0 for d in dims):
        raise FormatError(f"{path}: negative dimension in header {dims}")
    # math.prod, unlike np.prod, cannot wrap around on a huge header.
    expected = math.prod(dims)
    if len(data) - offset != expected:
        raise FormatError(
            f"{path}: payload has {len(data) - offset} bytes, header promises {expected}"
        )
    return np.frombuffer(data, dtype=np.uint8, offset=offset).reshape(dims)


def write_idx(path, array) -> None:
    """Inverse of ``load_idx`` for 1-d label or 3-d image byte tensors."""
    array = np.ascontiguousarray(array, dtype=np.uint8)
    if array.ndim == 1:
        magic = IDX_MAGIC_LABELS
    elif array.ndim == 3:
        magic = IDX_MAGIC_IMAGES
    else:
        raise InvalidInput(f"IDX supports 1-d or 3-d byte tensors, got ndim={array.ndim}")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">i", magic))
        fh.write(struct.pack(f">{array.ndim}i", *array.shape))
        fh.write(array.tobytes())


def _find_mnist(directory) -> dict[str, str | None]:
    """Each role's file under the first accepted spelling present, or None."""
    found = {}
    for role, names in MNIST_FILES.items():
        paths = (os.path.join(directory, name) for name in names)
        found[role] = next((path for path in paths if os.path.isfile(path)), None)
    return found


def mnist_available() -> bool:
    return None not in _find_mnist(data_dir()).values()


@dataclass(frozen=True)
class Split:
    """Train and test arrays of one dataset."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray


def stratified_indices(labels, total: int, rng: np.random.Generator) -> np.ndarray:
    """Pick ``total`` indices spread as evenly as possible across classes."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise InvalidInput("no labels to sample from")
    # The distinct labels in order; numpy's unique would import numpy.ma.
    s = np.sort(labels, axis=None)
    classes = s[np.concatenate(([True], s[1:] != s[:-1]))]
    base, extra = divmod(total, classes.size)
    chosen = []
    for k, c in enumerate(classes):
        want = base + (1 if k < extra else 0)
        pool = np.flatnonzero(labels == c)
        if pool.size < want:
            raise InvalidInput(
                f"class {c} has only {pool.size} samples, need {want}"
            )
        chosen.append(rng.choice(pool, size=want, replace=False))
    return np.sort(np.concatenate(chosen))


def _check_mnist(data: dict[str, np.ndarray]) -> None:
    """FormatError unless each set is 3-d images with as many digit labels."""
    for part in ("train", "test"):
        images, labels = data[f"{part}_images"], data[f"{part}_labels"]
        if images.ndim != 3 or labels.ndim != 1:
            raise FormatError(
                f"MNIST {part} files must hold 3-d images and 1-d labels, got "
                f"{images.ndim}-d images and {labels.ndim}-d labels"
            )
        if images.shape[0] != labels.shape[0]:
            raise FormatError(f"MNIST {part} images and labels disagree on count")
        if labels.size and labels.max() > 9:
            raise FormatError(f"MNIST {part} labels must be digits 0-9, got {labels.max()}")


def load_mnist_split(n_train: int, n_test: int, seed: int) -> Split:
    """Stratified MNIST subsample with pixels scaled to [0, 1].

    Raises FormatError when the IDX files are not present or do not hold
    images and digit labels; callers that want a fallback should check
    ``mnist_available`` first.
    """
    directory = data_dir()
    paths = _find_mnist(directory)
    if None in paths.values():
        raise FormatError(
            f"MNIST IDX files not found in {directory!r}; set ${DATA_DIR_ENV} "
            "to the directory holding them"
        )
    data = {role: load_idx(path) for role, path in paths.items()}
    _check_mnist(data)
    rng = substream(seed, "mnist-subsample")
    tr = stratified_indices(data["train_labels"], n_train, rng)
    te = stratified_indices(data["test_labels"], n_test, rng)
    return Split(
        x_train=data["train_images"][tr].reshape(tr.size, -1).astype(float) / 255.0,
        y_train=data["train_labels"][tr].astype(int),
        x_test=data["test_images"][te].reshape(te.size, -1).astype(float) / 255.0,
        y_test=data["test_labels"][te].astype(int),
    )


def one_hot(labels, n_classes: int) -> np.ndarray:
    """Encode integer class labels in ``[0, n_classes)`` as 0/1 rows."""
    labels = np.asarray(labels, dtype=int)
    if labels.size and labels.min() < 0:
        raise InvalidInput("class labels must be nonnegative")
    if labels.size and labels.max() >= n_classes:
        raise InvalidInput(f"class label {labels.max()} is not below n_classes = {n_classes}")
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def make_rkhs_regression(
    n_train: int, n_test: int, input_dim: int, n_centers: int, bandwidth: float, seed: int
) -> Split:
    """Noiseless regression on a random member of the Gaussian-kernel RKHS.

    Features are uniform on [0, 1]^input_dim and the target is ``y =
    sum_k alpha_k k(c_k, x)`` over fixed random centers, so responses are
    bounded by ``sum_k |alpha_k|``.
    """
    if n_train < 1 or n_test < 0 or input_dim < 1 or n_centers < 1:
        raise InvalidInput("need n_train >= 1, n_test >= 0, input_dim >= 1, n_centers >= 1")
    n_total = n_train + n_test
    rng = substream(seed, "rkhs-target")
    centers = rng.uniform(0.0, 1.0, size=(n_centers, input_dim))
    alpha = rng.standard_normal(n_centers)
    features = rng.uniform(0.0, 1.0, size=(n_total, input_dim))
    labels = gaussian_kernel(features, centers, bandwidth) @ alpha
    return Split(
        x_train=features[:n_train],
        y_train=labels[:n_train],
        x_test=features[n_train:],
        y_test=labels[n_train:],
    )
