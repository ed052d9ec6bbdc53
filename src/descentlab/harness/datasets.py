"""Dataset ingestion: IDX files (MNIST) and a synthetic RKHS regression.

MNIST arrives as four IDX files in the directory named by the
``DESCENTLAB_DATA`` environment variable (default ``./data``).  Pixels
are scaled to [0, 1] by dividing by 255 and images flattened to
784-vectors.  Without them, ``make_rkhs_regression`` (the ``rkhs-target``
dataset) stands in: it draws a noiseless member of the Gaussian-kernel
RKHS, which is the regime the infinite-width comparisons assume anyway.
"""

from __future__ import annotations

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
    exactly the advertised number of bytes.
    """
    with open(path, "rb") as fh:
        head = fh.read(4)
        if len(head) < 4:
            raise FormatError(f"{path}: truncated magic")
        (magic,) = struct.unpack(">i", head)
        if magic == IDX_MAGIC_LABELS:
            ndim = 1
        elif magic == IDX_MAGIC_IMAGES:
            ndim = 3
        else:
            raise FormatError(f"{path}: unsupported IDX magic 0x{magic:08x}")
        dim_bytes = fh.read(4 * ndim)
        if len(dim_bytes) < 4 * ndim:
            raise FormatError(f"{path}: truncated dimension header")
        dims = struct.unpack(f">{ndim}i", dim_bytes)
        if any(d < 0 for d in dims):
            raise FormatError(f"{path}: negative dimension in header {dims}")
        expected = int(np.prod(dims))
        payload = fh.read()
        if len(payload) != expected:
            raise FormatError(
                f"{path}: payload has {len(payload)} bytes, header promises {expected}"
            )
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


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


def _find_mnist(directory) -> dict[str, str] | None:
    found = {}
    for role, names in MNIST_FILES.items():
        for name in names:
            candidate = os.path.join(directory, name)
            if os.path.isfile(candidate):
                found[role] = candidate
                break
        else:
            return None
    return found


def mnist_available(directory=None) -> bool:
    return _find_mnist(directory or data_dir()) is not None


@dataclass(frozen=True)
class LabeledDataset:
    """Features and labels with a disjoint, covering train/test split."""

    features: np.ndarray
    labels: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self):
        n = self.features.shape[0]
        if self.labels.shape[0] != n:
            raise InvalidInput("features and labels disagree on the sample count")
        tr, te = set(self.train_idx.tolist()), set(self.test_idx.tolist())
        if tr & te:
            raise InvalidInput("train and test splits overlap")
        if tr | te != set(range(n)):
            raise InvalidInput("train and test splits must cover every row")

    @property
    def x_train(self) -> np.ndarray:
        return self.features[self.train_idx]

    @property
    def y_train(self) -> np.ndarray:
        return self.labels[self.train_idx]

    @property
    def x_test(self) -> np.ndarray:
        return self.features[self.test_idx]

    @property
    def y_test(self) -> np.ndarray:
        return self.labels[self.test_idx]


def stratified_indices(labels, total: int, rng: np.random.Generator) -> np.ndarray:
    """Pick ``total`` indices spread as evenly as possible across classes."""
    labels = np.asarray(labels)
    classes = np.unique(labels)
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


def load_mnist_split(
    n_train: int, n_test: int, seed: int, directory=None
) -> LabeledDataset:
    """Stratified MNIST subsample with pixels scaled to [0, 1].

    Raises FormatError when the IDX files are not present; callers that
    want a fallback should check ``mnist_available`` first.
    """
    directory = directory or data_dir()
    paths = _find_mnist(directory)
    if paths is None:
        raise FormatError(
            f"MNIST IDX files not found in {directory!r}; set ${DATA_DIR_ENV} "
            "to the directory holding them"
        )
    train_images = load_idx(paths["train_images"])
    train_labels = load_idx(paths["train_labels"])
    test_images = load_idx(paths["test_images"])
    test_labels = load_idx(paths["test_labels"])
    if train_images.shape[0] != train_labels.shape[0]:
        raise FormatError("MNIST train images and labels disagree on count")
    if test_images.shape[0] != test_labels.shape[0]:
        raise FormatError("MNIST test images and labels disagree on count")

    rng = substream(seed, "mnist-subsample")
    tr = stratified_indices(train_labels, n_train, rng)
    te = stratified_indices(test_labels, n_test, rng)
    x_tr = train_images[tr].reshape(tr.size, -1).astype(float) / 255.0
    x_te = test_images[te].reshape(te.size, -1).astype(float) / 255.0
    features = np.vstack([x_tr, x_te])
    labels = np.concatenate([train_labels[tr], test_labels[te]]).astype(int)
    return LabeledDataset(
        features=features,
        labels=labels,
        train_idx=np.arange(0, tr.size, dtype=int),
        test_idx=np.arange(tr.size, tr.size + te.size, dtype=int),
    )


def one_hot(labels, n_classes: int | None = None) -> np.ndarray:
    """Encode integer class labels as 0/1 rows."""
    labels = np.asarray(labels, dtype=int)
    if labels.size and labels.min() < 0:
        raise InvalidInput("class labels must be nonnegative")
    k = n_classes if n_classes is not None else int(labels.max()) + 1
    out = np.zeros((labels.size, k))
    out[np.arange(labels.size), labels] = 1.0
    return out


def make_rkhs_regression(
    n_train: int, n_test: int, input_dim: int, n_centers: int, bandwidth: float, seed: int
) -> LabeledDataset:
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
    return LabeledDataset(
        features=features,
        labels=labels,
        train_idx=np.arange(0, n_train, dtype=int),
        test_idx=np.arange(n_train, n_total, dtype=int),
    )
