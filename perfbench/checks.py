"""Readers and a float64 reference forward that do not call camlab.

The output checks compare what the `camlab` CLI writes (weights, FMAP
heatmaps, reports) with computations made here from the file formats and
the spec text alone, so that a change to the program's own readers or
forward pass cannot hide a wrong answer.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# --------------------------------------------------------------- readers


def read_pgm(path):
    """uint8 array [H,W] from an 8-bit binary PGM (P5)."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, w, h, maxval = data.split(maxsplit=4)[:4]
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"{path}: not an 8-bit P5 file")
    w, h = int(w), int(h)
    return np.frombuffer(data[len(data) - w * h:], dtype=np.uint8).reshape(h, w)


def read_fmap(path):
    with open(path, "rb") as fh:
        data = fh.read()
    head, size, payload = data.split(b"\n", 2)
    if head != b"FMAP1":
        raise ValueError(f"{path}: bad FMAP magic")
    w, h = (int(t) for t in size.split())
    return np.frombuffer(payload, dtype="<f4").reshape(h, w)


def read_weights(path):
    """{layer: {key: float64 array}} from <path>.manifest and <path>.bin."""
    with open(f"{path}.bin", "rb") as fh:
        blob = fh.read()
    out = {}
    with open(f"{path}.manifest", encoding="ascii") as fh:
        for line in fh:
            if not line.strip():
                continue
            name, key, shape, offset = line.split()
            shape = tuple(int(e) for e in shape.split(","))
            arr = np.frombuffer(blob, "<f4", int(np.prod(shape)), int(offset))
            out.setdefault(name, {})[key] = arr.reshape(shape).astype(np.float64)
    return out


def read_index(directory):
    """[(image id, [(label, (x0, y0, x1, y1), mask file), ...])] in file order."""
    grouped = {}
    with open(f"{directory}/index.txt", encoding="ascii") as fh:
        for line in fh:
            if not line.strip():
                continue
            image_id, label, x0, y0, x1, y1, mask = line.split()
            box = (int(x0), int(y0), int(x1), int(y1))
            grouped.setdefault(image_id, []).append((int(label), box, mask))
    return list(grouped.items())


def read_report(path):
    with open(path, encoding="ascii") as fh:
        return dict(line.strip().split("=", 1) for line in fh if "=" in line)


def box_area(box):
    return (box[2] - box[0] + 1) * (box[3] - box[1] + 1)


def box_iou(a, b):
    """IoU of inclusive-corner boxes (x0, y0, x1, y1)."""
    ix = min(a[2], b[2]) - max(a[0], b[0]) + 1
    iy = min(a[3], b[3]) - max(a[1], b[1]) + 1
    if ix <= 0 or iy <= 0:
        return 0.0
    return ix * iy / (box_area(a) + box_area(b) - ix * iy)


# ----------------------------------------------------- reference network


def parse_spec(path):
    """Layer plan [(name, kind, params, in_shape)] from a spec file."""
    plan, shape = [], None
    with open(path, encoding="ascii") as fh:
        for line in fh:
            parts = line.split("#", 1)[0].split()
            if not parts:
                continue
            name, kind = parts[0], parts[1]
            params = dict(kv.split("=", 1) for kv in parts[2:])
            if kind == "input":
                shape = tuple(int(e) for e in params["shape"].split("x"))
                continue
            params = {k: int(v) for k, v in params.items()}
            plan.append((name, kind, params, shape))
            shape = out_shape(kind, params, shape)
    return plan


def out_shape(kind, p, shape):
    if kind == "conv":
        k, s, pad = p["kernel"], p.get("stride", 1), p.get("pad", 0)
        return (p["filters"],) + tuple((e + 2 * pad - k) // s + 1 for e in shape[1:])
    if kind == "maxpool":
        win, s = p["window"], p.get("stride", p["window"])
        return (shape[0],) + tuple((e - win) // s + 1 for e in shape[1:])
    if kind == "gap":
        return shape[:1]
    if kind == "flatten":
        return (int(np.prod(shape)),)
    if kind == "dense":
        return (p["units"],)
    return shape


def ref_forward(plan, weights, x):
    """float64 forward; returns (scores, {layer: output}, activation pattern).

    The pattern holds every ReLU mask and max-pool winner, so a caller can
    tell whether two inputs lie on the same linear piece of the network.
    """
    x = np.asarray(x, dtype=np.float64)
    acts, pattern = {}, []
    for name, kind, p, _ in plan:
        if kind == "conv":
            w, b = weights[name]["weights"], weights[name]["bias"]
            pad, s = p.get("pad", 0), p.get("stride", 1)
            xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
            win = sliding_window_view(xp, w.shape[2:], axis=(1, 2))[:, ::s, ::s]
            x = np.einsum("chwij,kcij->khw", win, w) + b[:, None, None]
        elif kind == "relu":
            pattern.append(x > 0)
            x = np.maximum(x, 0)
        elif kind == "maxpool":
            win, s = p["window"], p.get("stride", p["window"])
            view = sliding_window_view(x, (win, win), axis=(1, 2))[:, ::s, ::s]
            flat = view.reshape(view.shape[:3] + (win * win,))
            pattern.append(flat.argmax(axis=-1))
            x = flat.max(axis=-1)
        elif kind == "gap":
            x = x.mean(axis=(1, 2))
        elif kind == "flatten":
            x = x.reshape(-1)
        elif kind == "dense":
            x = weights[name]["weights"] @ x + weights[name]["bias"]
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
        acts[name] = x
    return x, acts, pattern


def same_piece(pattern_a, pattern_b):
    return all(np.array_equal(a, b) for a, b in zip(pattern_a, pattern_b))


def cross_entropy(scores, label):
    m = scores.max()
    return float(m + np.log(np.exp(scores - m).sum()) - scores[label])


def spatial_mean_weights(plan, weights, acts, layer, category, h=1e-3):
    """Grad-CAM weights alpha_k by central differences at `layer`.

    alpha_k is the spatial mean of d score / d A_k, i.e. the derivative of
    the score when every position of channel k moves by the same amount,
    divided by the number of positions.  The score comes from forwarding
    the sub-network that starts after `layer`.  Returns None when a probe
    leaves the linear piece of the unshifted maps.
    """
    start = [n for n, *_ in plan].index(layer) + 1
    tail = plan[start:]
    a = acts[layer]
    _, _, base = ref_forward(tail, weights, a)
    alpha = np.empty(a.shape[0])
    for k in range(a.shape[0]):
        shift = np.zeros_like(a)
        shift[k] = h
        sp, _, pp = ref_forward(tail, weights, a + shift)
        sm, _, pm = ref_forward(tail, weights, a - shift)
        if not (same_piece(pp, base) and same_piece(pm, base)):
            return None
        alpha[k] = (sp[category] - sm[category]) / (2 * h) / (a.shape[1] * a.shape[2])
    return alpha
