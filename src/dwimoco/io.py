"""Deterministic serialization: raw+JSON volume containers, case manifests,
CSV tables and SVG plots.

A volume container is a pair of files sharing a stem: `<stem>.json` (dims,
spacing, dtype tag, storage order, optional b-value, optional component
count) and `<stem>.raw` (32-bit little-endian floats, x-fastest).  Masks are
stored as 0/1 volumes; displacement fields as 3-component containers with
the components concatenated (all of u_x, then u_y, then u_z).  Both layouts
are the Fortran-order ravel of the in-memory array, (nx, ny, nz) or
(nx, ny, nz, 3): flat index = x + nx*(y + ny*(z + nz*c)).

Readers validate and reject; they never repair.  Writers emit byte-stable
output for a fixed input: no timestamps, fixed key order, fixed float
formatting (9 significant digits in CSV/SVG).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .maturity import SaturationFit, predict_adc
from .pipeline import CaseResult
from .signal_model import forward_signal
from .volume import BValueSeries, DisplacementField, RoiMask, ScalarVolume


class ContainerError(ValueError):
    """Base for malformed volume-container input."""


class SidecarFormatError(ContainerError):
    """Sidecar JSON is unreadable or has missing/unknown/invalid keys."""


class ManifestError(ValueError):
    """Case manifest is malformed or references inconsistent data."""


_DTYPE_TAG = "f32le"
_ORDER_TAG = "x-fastest"
_SIDE_KEYS = {"dims", "spacing", "dtype", "order", "bvalue", "components"}


def _stem(path) -> Path:
    p = Path(path)
    return p.with_suffix("") if p.suffix == ".json" else p


def fmt(x: float) -> str:
    """Project-wide number formatting: 9 significant digits, '.' decimal."""
    return format(float(x), ".9g")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, separators=(", ", ": ")) + "\n")


def _write_container(stem: Path, flat32: np.ndarray, dims, spacing, bvalue, components):
    side = {
        "dims": [int(d) for d in dims],
        "spacing": [float(s) for s in spacing],
        "dtype": _DTYPE_TAG,
        "order": _ORDER_TAG,
    }
    if bvalue is not None:
        side["bvalue"] = float(bvalue)
    if components is not None:
        side["components"] = int(components)
    stem.parent.mkdir(parents=True, exist_ok=True)
    _write_json(stem.with_suffix(".json"), side)
    stem.with_suffix(".raw").write_bytes(flat32.astype("<f4").tobytes())


def _is_integer(value) -> bool:
    """A JSON integer; true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite JSON number; true and false are not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) < np.inf


def _read_container(path):
    stem = _stem(path)
    side_path = stem.with_suffix(".json")
    raw_path = stem.with_suffix(".raw")
    if not side_path.is_file():
        raise SidecarFormatError(f"missing sidecar {side_path}")
    if not raw_path.is_file():
        raise ContainerError(f"missing raw file {raw_path}")
    try:
        side = json.loads(side_path.read_text())
    except ValueError as err:  # also a file that is not UTF-8
        raise SidecarFormatError(f"malformed sidecar JSON {side_path}: {err}") from err
    if not isinstance(side, dict):
        raise SidecarFormatError(f"sidecar {side_path} must hold a JSON object")
    unknown = set(side) - _SIDE_KEYS
    if unknown:
        raise SidecarFormatError(f"unknown sidecar keys {sorted(unknown)} in {side_path}")
    for key in ("dims", "spacing", "dtype", "order"):
        if key not in side:
            raise SidecarFormatError(f"sidecar {side_path} missing key '{key}'")
    if side["dtype"] != _DTYPE_TAG:
        raise SidecarFormatError(f"unknown dtype tag {side['dtype']!r} (expected {_DTYPE_TAG!r})")
    if side["order"] != _ORDER_TAG:
        raise SidecarFormatError(f"unknown order tag {side['order']!r}")
    dims = side["dims"]
    if not (
        isinstance(dims, list) and len(dims) == 3 and all(_is_integer(d) and d >= 1 for d in dims)
    ):
        raise SidecarFormatError(f"dims must be 3 integers >= 1, got {dims!r} in {side_path}")
    spacing = side["spacing"]
    if not (
        isinstance(spacing, list)
        and len(spacing) == 3
        and all(_is_number(s) and s > 0.0 for s in spacing)
    ):
        raise SidecarFormatError(
            f"spacing must be 3 finite numbers > 0, got {spacing!r} in {side_path}"
        )
    if "bvalue" in side and not _is_number(side["bvalue"]):
        raise SidecarFormatError(
            f"bvalue must be a finite number, got {side['bvalue']!r} in {side_path}"
        )
    components = side.get("components", 1)
    if not (_is_integer(components) and components in (1, 3)):
        raise SidecarFormatError(f"components must be 1 or 3, got {components!r} in {side_path}")
    n_expected = dims[0] * dims[1] * dims[2] * components
    payload = raw_path.read_bytes()
    if len(payload) != 4 * n_expected:
        raise ContainerError(
            f"{raw_path}: raw length mismatch, expected {4 * n_expected} bytes "
            f"({n_expected} float32), got {len(payload)}"
        )
    flat = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    if not np.isfinite(flat).all():
        raise ContainerError(f"{raw_path}: payload holds non-finite values")
    return side, dims, flat, components


def write_volume(vol: ScalarVolume, path, bvalue=None) -> None:
    """Write one volume as a raw+JSON container at the given stem."""
    _write_container(_stem(path), vol.data.ravel(order="F"), vol.dims, vol.spacing, bvalue, None)


def _read_scalar(path):
    """(ScalarVolume, the sidecar's b-value or None) of a scalar container."""
    side, dims, flat, components = _read_container(path)
    if components != 1:
        raise SidecarFormatError(f"{path}: expected a scalar container, got components=3")
    vol = ScalarVolume(flat.reshape(dims, order="F"), tuple(side["spacing"]))
    return vol, side.get("bvalue")


def read_volume(path) -> ScalarVolume:
    """Read a raw+JSON container back into a ScalarVolume."""
    return _read_scalar(path)[0]


def write_mask(mask: RoiMask, path) -> None:
    flat = mask.data.astype(np.float64).ravel(order="F")
    _write_container(_stem(path), flat, mask.dims, (1.0, 1.0, 1.0), None, None)


def read_mask(path) -> RoiMask:
    vol = read_volume(path)
    return RoiMask(vol.data > 0.5)


def write_field(field: DisplacementField, path) -> None:
    """Write a displacement field: 3 x-fastest component blocks (ux, uy, uz)."""
    _write_container(_stem(path), field.data.ravel(order="F"), field.dims, (1.0, 1.0, 1.0), None, 3)


def read_field(path) -> DisplacementField:
    side, dims, flat, components = _read_container(path)
    if components != 3:
        raise SidecarFormatError(f"{path}: expected a 3-component container")
    return DisplacementField(flat.reshape((*dims, 3), order="F"))


_MANIFEST_KEYS = {"case_id", "ga_weeks", "roi", "volumes"}


def _manifest_number(value, what: str) -> float:
    if not _is_number(value):
        raise ManifestError(f"{what} must be a finite JSON number, got {value!r}")
    return float(value)


def write_case(series: BValueSeries, roi: RoiMask, ga_weeks: float, case_id: str, out_dir) -> Path:
    """Write a whole case (manifest + per-b volumes + ROI); returns manifest path.

    Raises ValueError, before writing anything, for a GA that `read_case`
    rejects: one that is not finite and > 0.
    """
    if not 0.0 < ga_weeks < float("inf"):
        raise ValueError(f"ga_weeks must be finite and > 0, got {ga_weeks}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for b, vol in zip(series.bvalues, series.volumes):
        name = f"b{b:g}"
        write_volume(vol, out / name, bvalue=b)
        entries.append({"bvalue": float(b), "path": f"{name}.json"})
    write_mask(roi, out / "roi")
    manifest = {
        "case_id": str(case_id),
        "ga_weeks": float(ga_weeks),
        "roi": "roi.json",
        "volumes": entries,
    }
    path = out / "manifest.json"
    _write_json(path, manifest)
    return path


def read_case(manifest_path):
    """Load a case: returns (BValueSeries, RoiMask, ga_weeks).

    Volumes are assembled in ascending b-value order regardless of how the
    manifest lists them.  Rejects any grid mismatch, a volume whose spacing
    differs from the b=0 volume's (the ROI mask is written with spacing 1,
    so only its grid is compared), an empty ROI, a gestational age <= 0 and
    any series `BValueSeries` rejects (duplicate or negative b-values, a
    missing b=0 entry, negative signals) and a volume whose sidecar
    records a b-value other than its manifest entry's, always with
    ManifestError or ContainerError.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise ManifestError(f"missing manifest {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as err:  # also a file that is not UTF-8
        raise ManifestError(f"malformed manifest JSON: {err}") from err
    if not isinstance(manifest, dict):
        raise ManifestError("manifest must hold a JSON object")
    unknown = set(manifest) - _MANIFEST_KEYS
    if unknown:
        raise ManifestError(f"unknown manifest keys {sorted(unknown)}")
    for key in _MANIFEST_KEYS:
        if key not in manifest:
            raise ManifestError(f"manifest missing key '{key}'")
    base = manifest_path.parent
    entries = manifest["volumes"]
    if not isinstance(entries, list) or len(entries) < 2:
        raise ManifestError("manifest needs >= 2 volume entries")
    loaded = []
    for entry in entries:
        if (
            not isinstance(entry, dict)
            or set(entry) != {"bvalue", "path"}
            or not isinstance(entry["path"], str)
        ):
            raise ManifestError(f"volume entry needs a bvalue and a path string, got {entry!r}")
        b = _manifest_number(entry["bvalue"], "bvalue")
        vol, side_b = _read_scalar(base / entry["path"])
        if side_b is not None and float(side_b) != b:
            raise ManifestError(
                f"{entry['path']} records bvalue {side_b:g}, the manifest says {b:g}"
            )
        loaded.append((b, vol))
    loaded.sort(key=lambda t: t[0])
    dims, spacing = loaded[0][1].dims, loaded[0][1].spacing
    for b, vol in loaded:
        if vol.dims != dims:
            raise ManifestError(f"volume at b={b:g} has dims {vol.dims}, expected {dims}")
        if vol.spacing != spacing:
            raise ManifestError(f"volume at b={b:g} has spacing {vol.spacing}, expected {spacing}")
    if not isinstance(manifest["roi"], str):
        raise ManifestError(f"roi must be a path, got {manifest['roi']!r}")
    roi = read_mask(base / manifest["roi"])
    if roi.dims != dims:
        raise ManifestError(f"roi dims {roi.dims} do not match volumes {dims}")
    if roi.count == 0:
        raise ManifestError(f"roi {manifest['roi']} holds no voxel")
    ga_weeks = _manifest_number(manifest["ga_weeks"], "ga_weeks")
    if ga_weeks <= 0.0:
        raise ManifestError(f"ga_weeks must be > 0, got {ga_weeks:g}")
    try:
        series = BValueSeries(tuple(b for b, _ in loaded), tuple(v for _, v in loaded))
    except ValueError as err:
        raise ManifestError(f"{manifest_path}: {err}") from err
    return series, roi, ga_weeks


def _csv_cell(c) -> str:
    if not isinstance(c, str):
        return fmt(c)
    if any(ch in c for ch in ',"\r\n'):
        return '"' + c.replace('"', '""') + '"'
    return c


def write_csv(path, header, rows) -> None:
    """CSV with fixed column order; floats at 9 significant digits.

    Strings holding a comma, quote or line break are quoted (RFC 4180).
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(c) for c in row))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# minimal deterministic SVG plotting (hand-rolled so output bytes are stable)

_W, _H = 360.0, 270.0
_ML, _MR, _MT, _MB = 52.0, 12.0, 16.0, 40.0


class _Axes:
    def __init__(self, xlim, ylim):
        self.x0, self.x1 = xlim
        self.y0, self.y1 = ylim

    def px(self, x):
        t = (x - self.x0) / (self.x1 - self.x0)
        return _ML + t * (_W - _ML - _MR)

    def py(self, y):
        t = (y - self.y0) / (self.y1 - self.y0)
        return _H - _MB - t * (_H - _MT - _MB)


def _svg_open(width=_W, height=_H):
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt(width)}" '
        f'height="{fmt(height)}" viewBox="0 0 {fmt(width)} {fmt(height)}">',
        f'<rect width="{fmt(width)}" height="{fmt(height)}" fill="white"/>',
    ]


def _svg_frame(ax, xlabel, ylabel, title):
    x0, y0 = ax.px(ax.x0), ax.py(ax.y0)
    x1, y1 = ax.px(ax.x1), ax.py(ax.y1)
    parts = [
        f'<rect x="{fmt(x0)}" y="{fmt(y1)}" width="{fmt(x1 - x0)}" '
        f'height="{fmt(y0 - y1)}" fill="none" stroke="black" stroke-width="1"/>',
        f'<text x="{fmt((x0 + x1) / 2)}" y="{fmt(_H - 8)}" font-size="11" '
        f'text-anchor="middle">{xlabel}</text>',
        f'<text x="12" y="{fmt((y0 + y1) / 2)}" font-size="11" text-anchor="middle" '
        f'transform="rotate(-90 12 {fmt((y0 + y1) / 2)})">{ylabel}</text>',
        f'<text x="{fmt((x0 + x1) / 2)}" y="{fmt(_MT - 4)}" font-size="11" '
        f'text-anchor="middle">{title}</text>',
    ]
    for xt in (ax.x0, (ax.x0 + ax.x1) / 2, ax.x1):
        parts.append(
            f'<text x="{fmt(ax.px(xt))}" y="{fmt(y0 + 14)}" font-size="9" '
            f'text-anchor="middle">{fmt(xt)}</text>'
        )
    for yt in (ax.y0, (ax.y0 + ax.y1) / 2, ax.y1):
        parts.append(
            f'<text x="{fmt(x0 - 4)}" y="{fmt(ax.py(yt) + 3)}" font-size="9" '
            f'text-anchor="end">{fmt(yt)}</text>'
        )
    return parts


def _svg_polyline(ax, xs, ys):
    pts = " ".join(f"{fmt(ax.px(x))},{fmt(ax.py(y))}" for x, y in zip(xs, ys))
    return f'<polyline points="{pts}" fill="none" stroke="gray" stroke-width="1.2"/>'


def _svg_dot(ax, x, y, shade=0.0):
    # shade 0 -> black, 1 -> light gray
    level = int(round(200 * min(max(shade, 0.0), 1.0)))
    color = f"rgb({level},{level},{level})"
    return (
        f'<circle cx="{fmt(ax.px(x))}" cy="{fmt(ax.py(y))}" r="3" '
        f'fill="{color}" stroke="black" stroke-width="0.4"/>'
    )


def _decay_panel_svg(bvalues, signals, log_s0, adc, title):
    b = np.asarray(bvalues, dtype=np.float64)
    sig = np.asarray(signals, dtype=np.float64)
    curve_b = np.linspace(0.0, float(b[-1]), 60)
    curve_s = forward_signal(np.exp(log_s0), adc, curve_b)
    top = max(float(sig.max()), float(curve_s.max())) * 1.1
    ax = _Axes((0.0, float(b[-1])), (0.0, top))
    parts = _svg_frame(ax, "b-value (s/mm^2)", "ROI mean signal", title)
    parts.append(_svg_polyline(ax, curve_b, curve_s))
    parts.extend(_svg_dot(ax, x, y) for x, y in zip(b, sig))
    return parts


def write_decay_curves_svg(result: CaseResult, path) -> None:
    """One panel per recorded iteration: ROI-mean signal vs b with its fit."""
    per_row = 4
    n = len(result.records)
    rows = (n + per_row - 1) // per_row
    width = _W * min(n, per_row)
    height = _H * rows
    out = _svg_open(width, height)
    for idx, rec in enumerate(result.records):
        r, c = divmod(idx, per_row)
        out.append(f'<g transform="translate({fmt(c * _W)},{fmt(r * _H)})">')
        out.extend(
            _decay_panel_svg(
                result.bvalues,
                rec.roi_mean_signals,
                rec.curve_log_s0,
                rec.roi_mean_adc,
                f"iteration {idx} (R2={fmt(rec.roi_r2)})",
            )
        )
        out.append("</g>")
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n")


def write_ga_scatter_svg(points, fit: SaturationFit, path, title) -> None:
    """ADC vs GA scatter, shaded by per-case fit R^2, with the fitted curve
    drawn over the plot's GA range from GA 0 on."""
    pts = sorted(points, key=lambda p: p.case_id)
    ga = np.array([p.ga for p in pts])
    adc = np.array([p.adc for p in pts])
    ax = _Axes(
        (float(ga.min()) - 1.0, float(ga.max()) + 1.0),
        (0.0, float(max(adc.max(), fit.adc_sat)) * 1.15),
    )
    out = _svg_open()
    out.extend(_svg_frame(ax, "gestational age (weeks)", "ADC (mm^2/s)", title))
    curve_ga = np.linspace(max(ax.x0, 0.0), ax.x1, 80)
    out.append(_svg_polyline(ax, curve_ga, predict_adc(curve_ga, fit)))
    for p in pts:
        out.append(_svg_dot(ax, p.ga, p.adc, shade=1.0 - min(max(p.fit_r2, 0.0), 1.0)))
    out.append(
        f'<text x="{fmt(_W - _MR - 4)}" y="{fmt(_MT + 12)}" font-size="10" '
        f'text-anchor="end">R2={fmt(fit.r2)}</text>'
    )
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n")


def write_case_report(result: CaseResult, out_dir, case_id: str, variant: str):
    """Emit the per-case artifacts: iteration trace CSV, case summary CSV,
    per-iteration decay-curve SVG, and the maps, fields and series of the
    state where the run stopped (the best_* files; `CaseResult`).

    The compensated series is one resample of the input, so the
    compensated_single_resample_b* files equal the compensated_b* ones byte
    for byte; they stay only while the benchmark still checks them.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "iterations.csv",
        [
            "iteration",
            "roi_mean_adc_mm2s",
            "roi_r2",
            "loss_similarity",
            "loss_smooth",
            "loss_model_fit",
            "loss_total",
        ],
        [
            [
                str(k),
                r.roi_mean_adc,
                r.roi_r2,
                r.loss.similarity,
                r.loss.smooth,
                r.loss.model_fit,
                r.loss.total,
            ]
            for k, r in enumerate(result.records)
        ],
    )
    best = result.best_record
    first = result.records[0]
    write_csv(
        out / "summary.csv",
        [
            "case_id",
            "variant",
            "best_iteration",
            "best_adc_mm2s",
            "best_r2",
            "input_adc_mm2s",
            "input_r2",
            "iterations",
            "converged",
            "failed",
        ],
        [
            [
                case_id,
                variant,
                str(result.best_iteration),
                best.roi_mean_adc,
                best.roi_r2,
                first.roi_mean_adc,
                first.roi_r2,
                str(len(result.records)),
                str(result.converged).lower(),
                str(result.failed).lower(),
            ]
        ],
    )
    write_decay_curves_svg(result, out / "decay_curves.svg")
    write_volume(result.best_maps.adc, out / "best_adc")
    write_volume(result.best_maps.log_s0, out / "best_log_s0")
    for b, f in zip(result.bvalues, result.best_fields):
        write_field(f, out / f"best_field_b{b:g}")
    for b, vol in zip(result.bvalues, result.best_series.volumes):
        write_volume(vol, out / f"compensated_b{b:g}", bvalue=b)
    for b, vol in zip(result.bvalues, result.best_series_resampled.volumes):
        write_volume(vol, out / f"compensated_single_resample_b{b:g}", bvalue=b)


def write_cohort_report(points_by_method: dict, fits_by_method: dict, out_dir):
    """Emit cohort artifacts: per-method point CSVs and scatter SVGs plus the
    method-comparison summary table."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for method in sorted(points_by_method):
        pts = sorted(points_by_method[method], key=lambda p: p.case_id)
        write_csv(
            out / f"cohort_points_{method}.csv",
            ["case_id", "ga_weeks", "adc_mm2s", "fit_r2"],
            [[p.case_id, p.ga, p.adc, p.fit_r2] for p in pts],
        )
        fit = fits_by_method.get(method)
        if fit is not None:
            write_ga_scatter_svg(pts, fit, out / f"ga_scatter_{method}.svg", method)
            rows.append(
                [method, fit.r2, fit.adc_sat, fit.alpha, str(len(pts)), str(fit.flagged).lower()]
            )
    write_csv(
        out / "summary.csv",
        ["method", "r2", "adc_sat_mm2s", "alpha_per_week", "n_cases", "flagged"],
        rows,
    )

