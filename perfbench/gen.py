"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its arguments: the same seed gives
byte-identical files and requests. The program under test only ever sees
what these functions produce (CSV files, detection files, HTTP bodies);
the expected answers are derived here, independently of canopydw.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

REGISTRY_HEADER = "code,scientific_name,common_name,conservation_status"
MANIFEST_HEADER = (
    "file_name,capture_date,platform,width_px,height_px,gsd_cm_per_px,"
    "gt_origin_x,gt_origin_y,gt_a,gt_b,gt_d,gt_e,size_bytes,checksum"
)
SURVEY_HEADER = "record_id,geo_x,geo_y,species_code,dbh_cm,height_m,surveyed_date"

SPECIES = (
    ("PSME", "Pseudotsuga menziesii", "Douglas-fir", "least_concern"),
    ("TSHE", "Tsuga heterophylla", "Western hemlock", "near_threatened"),
    ("THPL", "Thuja plicata", "Western redcedar", "least_concern"),
    ("PISI", "Picea sitchensis", "Sitka spruce", "vulnerable"),
    ("ALRU", "Alnus rubra", "Red alder", "least_concern"),
    ("ACMA", "Acer macrophyllum", "Bigleaf maple", "endangered"),
)
CODES = tuple(code for code, *_ in SPECIES)
PLATFORMS = ("uav", "aerial", "satellite", "ground")
DATES = ("2024-03-04", "2024-05-17", "2024-07-29", "2024-10-02", "2025-01-21")

# Lattice scenes: square images of IMAGE_PX pixels at GSD_M metres per
# pixel, facts on a PITCH_M grid with at most JITTER_M of jitter, images
# SCENE_GAP_M apart so that the gaps hold the "far" survey records.
IMAGE_PX = 1000
GSD_M = 0.1
PITCH_M = 5.0
JITTER_M = 0.4
SCENE_GAP_M = 1000.0
LATTICE_SIDE = int(IMAGE_PX * GSD_M / PITCH_M)
FACTS_PER_SCENE_IMAGE = LATTICE_SIDE * LATTICE_SIDE
# Survey records within radius/2 of a fact of the same species, of another
# species; the rest lie far from every fact.
NEAR_SAME_SHARE = 0.5
NEAR_OTHER_SHARE = 0.2


def rng_for(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def checksum(seed: int, label: str) -> str:
    return hashlib.sha256(f"{seed}:{label}".encode()).hexdigest()


def registry_lines() -> list[str]:
    return [REGISTRY_HEADER] + [",".join(row) for row in SPECIES]


def _num(value: float) -> str:
    return f"{value:.6f}"


@dataclass(frozen=True)
class Image:
    """One manifest row; geometry is a north-up affine geotransform."""

    file_name: str
    capture_date: str
    platform: str
    origin_x: float
    origin_y: float
    width_px: int = IMAGE_PX
    height_px: int = IMAGE_PX
    gsd_m: float = GSD_M
    size_bytes: int = 4_000_000
    checksum: str = "0" * 64

    def fields(self) -> dict[str, str]:
        return {
            "file_name": self.file_name,
            "capture_date": self.capture_date,
            "platform": self.platform,
            "width_px": str(self.width_px),
            "height_px": str(self.height_px),
            "gsd_cm_per_px": _num(self.gsd_m * 100),
            "gt_origin_x": _num(self.origin_x),
            "gt_origin_y": _num(self.origin_y),
            "gt_a": _num(self.gsd_m),
            "gt_b": "0",
            "gt_d": "0",
            "gt_e": _num(-self.gsd_m),
            "size_bytes": str(self.size_bytes),
            "checksum": self.checksum,
        }

    def manifest_line(self) -> str:
        return ",".join(self.fields()[name] for name in MANIFEST_HEADER.split(","))

    def geo(self, cx: float, cy: float) -> tuple[float, float]:
        """Ground position of a normalized box centre (the affine map)."""
        return (
            self.origin_x + cx * self.width_px * self.gsd_m,
            self.origin_y - cy * self.height_px * self.gsd_m,
        )

    @property
    def detection_file(self) -> str:
        return self.file_name.rsplit(".", 1)[0] + ".txt"


def detection_line(class_id: int, cx: float, cy: float, w: float, h: float, conf: float) -> str:
    return " ".join([str(class_id), _num(cx), _num(cy), _num(w), _num(h), _num(conf)])


def random_detections(rng: random.Random, count: int) -> tuple[list[str], list[int]]:
    """count boxes well inside the frame; returns the lines and class ids."""
    lines, classes = [], []
    for _ in range(count):
        class_id = rng.randrange(len(CODES))
        lines.append(
            detection_line(
                class_id,
                rng.uniform(0.05, 0.95),
                rng.uniform(0.05, 0.95),
                rng.uniform(0.01, 0.05),
                rng.uniform(0.01, 0.05),
                rng.uniform(0.3, 1.0),
            )
        )
        classes.append(class_id)
    return lines, classes


# -- ingest campaign -----------------------------------------------------------


@dataclass
class Campaign:
    """A sequence of CLI ingest steps plus the totals they must produce."""

    registry: list[str]
    class_map: list[str]
    # ("images", batch_no, [Image], {detection file: lines}) or ("survey", survey_id, lines)
    steps: list[tuple]
    facts: int = 0
    images: int = 0
    species_counts: dict[str, int] = field(default_factory=dict)


def campaign(seed: int, batches: int, images_per_batch: int, dets_per_image: int, survey_every: int, survey_records: int) -> Campaign:
    rng = rng_for(seed, "campaign")
    out = Campaign(registry=registry_lines(), class_map=list(CODES), steps=[])
    counts = dict.fromkeys(CODES, 0)
    for b in range(batches):
        date = DATES[b * len(DATES) // batches]
        images, files = [], {}
        for i in range(images_per_batch):
            img = Image(
                file_name=f"b{b:03d}_i{i:03d}.jpg",
                capture_date=date,
                platform=PLATFORMS[(b + i) % len(PLATFORMS)],
                origin_x=500_000.0 + 120.0 * i,
                origin_y=5_000_000.0 + 120.0 * b,
                size_bytes=rng.randrange(2_000_000, 9_000_000),
                checksum=checksum(seed, f"campaign:{b}:{i}"),
            )
            lines, classes = random_detections(rng, dets_per_image)
            for c in classes:
                counts[CODES[c]] += 1
            images.append(img)
            files[img.detection_file] = lines
        out.steps.append(("images", b, images, files))
        out.images += images_per_batch
        out.facts += images_per_batch * dets_per_image
        if survey_every and (b + 1) % survey_every == 0:
            sid = f"survey_{b:03d}"
            lines = [SURVEY_HEADER]
            for j in range(survey_records):
                lines.append(
                    ",".join(
                        [
                            f"{sid}-{j:05d}",
                            _num(500_000.0 + rng.uniform(0, 1200)),
                            _num(5_000_000.0 + rng.uniform(0, 120.0 * batches)),
                            rng.choice(CODES),
                            _num(rng.uniform(10, 120)),
                            _num(rng.uniform(5, 60)),
                            date,
                        ]
                    )
                )
            out.steps.append(("survey", sid, lines))
    out.species_counts = {code: n for code, n in counts.items() if n}
    return out


def write_campaign(camp: Campaign, directory: Path) -> tuple[list[list[str]], int]:
    """Write the campaign's files; returns the CLI argv per step (no --root) and input bytes."""
    directory.mkdir(parents=True)
    files: dict[Path, str] = {
        directory / "registry.csv": "\n".join(camp.registry) + "\n",
        directory / "classes.txt": "\n".join(camp.class_map) + "\n",
    }
    argvs = [["ingest-species", "--registry", str(directory / "registry.csv")]]
    for step in camp.steps:
        if step[0] == "images":
            _, b, images, dets = step
            bdir = directory / f"batch_{b:03d}"
            files[bdir / "manifest.csv"] = "\n".join([MANIFEST_HEADER] + [img.manifest_line() for img in images]) + "\n"
            for name, lines in dets.items():
                files[bdir / "det" / name] = "\n".join(lines) + "\n"
            argvs.append(
                [
                    "ingest-images",
                    "--manifest",
                    str(bdir / "manifest.csv"),
                    "--detections-dir",
                    str(bdir / "det"),
                    "--class-map",
                    str(directory / "classes.txt"),
                ]
            )
        else:
            _, sid, lines = step
            files[directory / f"{sid}.csv"] = "\n".join(lines) + "\n"
            argvs.append(["ingest-survey", "--file", str(directory / f"{sid}.csv")])
    total = 0
    for path, text in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        data = text.encode()
        path.write_bytes(data)
        total += len(data)
    return argvs, total


# -- lattice scenes (reconcile and serve) ------------------------------------------


@dataclass
class Scene:
    """Images whose facts sit on a jittered lattice, plus an optional survey.

    Facts are PITCH_M apart less twice JITTER_M, so more than twice the
    match radius; near records sit within radius/2 of one distinct fact,
    far records sit in the gaps between images. The matching is therefore
    unique and its outcome is known without running it.
    """

    images: list[Image]
    detections: dict[str, list[str]]
    fact_geo: list[tuple[float, float, str]]  # (x, y, species) in ingest order
    survey: list[str] = field(default_factory=list)
    near_same: int = 0
    near_other: int = 0
    far: int = 0

    @property
    def expected_pairs(self) -> int:
        return self.near_same + self.near_other

    @property
    def expected_accuracy(self) -> float | None:
        pairs = self.expected_pairs
        return None if pairs == 0 else self.near_same / pairs


def lattice_scene(seed: int, facts: int, label: str = "scene") -> Scene:
    rng = rng_for(seed, label)
    extent = IMAGE_PX * GSD_M
    images, dets, geo = [], {}, []
    n_images = math.ceil(facts / FACTS_PER_SCENE_IMAGE)
    for k in range(n_images):
        img = Image(
            file_name=f"{label}_{k:04d}.jpg",
            capture_date=DATES[k % len(DATES)],
            platform=PLATFORMS[k % len(PLATFORMS)],
            origin_x=600_000.0 + SCENE_GAP_M * k,
            origin_y=5_200_000.0,
            size_bytes=rng.randrange(2_000_000, 9_000_000),
            checksum=checksum(seed, f"{label}:{k}"),
        )
        images.append(img)
        lines = []
        count = min(FACTS_PER_SCENE_IMAGE, facts - k * FACTS_PER_SCENE_IMAGE)
        for n in range(count):
            row, col = divmod(n, LATTICE_SIDE)
            cx = (col * PITCH_M + PITCH_M / 2 + rng.uniform(-JITTER_M, JITTER_M)) / extent
            cy = (row * PITCH_M + PITCH_M / 2 + rng.uniform(-JITTER_M, JITTER_M)) / extent
            class_id = rng.randrange(len(CODES))
            line = detection_line(class_id, cx, cy, 0.02, 0.02, rng.uniform(0.3, 1.0))
            lines.append(line)
            fields = line.split()
            x, y = img.geo(float(fields[1]), float(fields[2]))
            geo.append((x, y, CODES[class_id]))
        dets[img.detection_file] = lines
    return Scene(images=images, detections=dets, fact_geo=geo)


def add_survey(scene: Scene, seed: int, records: int, radius: float) -> None:
    """Place records by construction: near-same, near-other species, and far."""
    rng = rng_for(seed, "survey")
    n_same = int(records * NEAR_SAME_SHARE)
    n_other = int(records * NEAR_OTHER_SHARE)
    n_far = records - n_same - n_other
    if n_same + n_other > len(scene.fact_geo):
        raise ValueError("more near records than facts")
    chosen = rng.sample(range(len(scene.fact_geo)), n_same + n_other)
    lines = [SURVEY_HEADER]

    def record(rid: str, x: float, y: float, code: str) -> None:
        lines.append(",".join([rid, _num(x), _num(y), code, _num(rng.uniform(10, 120)), _num(rng.uniform(5, 60)), "2024-06-01"]))

    for j, idx in enumerate(chosen):
        fx, fy, code = scene.fact_geo[idx]
        if j >= n_same:
            code = rng.choice([c for c in CODES if c != code])
        angle = rng.uniform(0, 2 * math.pi)
        dist = rng.uniform(0, 0.45 * radius)
        record(f"r{j:06d}", fx + dist * math.cos(angle), fy + dist * math.sin(angle), code)
    extent = IMAGE_PX * GSD_M
    for j in range(n_far):
        k = rng.randrange(max(1, len(scene.images)))
        x = 600_000.0 + SCENE_GAP_M * k + extent + rng.uniform(0.2, 0.8) * (SCENE_GAP_M - extent)
        y = 5_200_000.0 - rng.uniform(0, extent)
        record(f"f{j:06d}", x, y, rng.choice(CODES))
    scene.survey = lines
    scene.near_same, scene.near_other, scene.far = n_same, n_other, n_far


def survey_positions(lines: list[str]) -> list[tuple[str, float, float, str]]:
    out = []
    for line in lines[1:]:
        rid, x, y, code = line.split(",")[:4]
        out.append((rid, float(x), float(y), code))
    return out


# -- serve traffic ------------------------------------------------------------------


QUERY_SPECS = (
    {"group_by": "species", "measures": "tree_count,mean_confidence"},
    {"group_by": "platform", "measures": "tree_count,image_count"},
    {"group_by": "month,species", "measures": "tree_count"},
    {"group_by": "resolution_class,conservation_status", "measures": "tree_count,confirmed_count"},
    {"measures": "tree_count,mean_confidence,image_count"},
    {"group_by": "year,platform", "measures": "tree_count,mean_height_m"},
)


def post_image_body(seed: int, index: int, dets_per_image: int) -> dict:
    """Body of one POST /v1/images: a new image far from every scene image."""
    rng = rng_for(seed, f"post:{index}")
    img = Image(
        file_name=f"post_{index:05d}.jpg",
        capture_date=DATES[index % len(DATES)],
        platform=PLATFORMS[index % len(PLATFORMS)],
        origin_x=300_000.0 + 150.0 * (index % 100),
        origin_y=4_800_000.0 + 150.0 * (index // 100),
        size_bytes=rng.randrange(2_000_000, 9_000_000),
        checksum=checksum(seed, f"post:{index}"),
    )
    lines, _ = random_detections(rng, dets_per_image)
    return {"manifest": img.fields(), "detections": lines, "class_map": list(CODES)}
