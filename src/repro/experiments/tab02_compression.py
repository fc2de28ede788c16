"""Table 2 — compression ratio vs container size.

Paper result (LZ4): tweets do not compress individually (0.99) but reach
1.41 in 4 KB containers; Places records compress somewhat individually
(1.28) and reach 1.77 at 4 KB.  The monotone growth with container size is
the motivation for batched compression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.compression import (
    Compressor,
    LZ4Compressor,
    ZlibCompressor,
    container_compression_ratio,
    individual_compression_ratio,
)
from repro.workloads.values import PlacesValueGenerator, TweetValueGenerator

DEFAULT_CONTAINER_SIZES = (256, 512, 1024, 2048, 4096)

#: The paper's Table 2 (LZ4) for side-by-side reporting.
PAPER_ROWS = {
    "Tweets": {"individual": 0.99, 256: 1.10, 512: 1.21, 1024: 1.30, 2048: 1.34, 4096: 1.41},
    "Places": {"individual": 1.28, 256: 1.28, 512: 1.45, 1024: 1.60, 2048: 1.70, 4096: 1.77},
}


@dataclass
class Tab02Result:
    #: (corpus, codec, individual ratio, {container size: ratio})
    rows: List[Tuple[str, str, float, Dict[int, float]]]
    container_sizes: Sequence[int]

    def table(self) -> str:
        headers = ["corpus", "codec", "individual"] + [
            str(size) for size in self.container_sizes
        ]
        body = []
        for corpus, codec, individual, by_size in self.rows:
            body.append(
                [corpus, codec, f"{individual:.2f}"]
                + [f"{by_size[size]:.2f}" for size in self.container_sizes]
            )
        for corpus, paper in PAPER_ROWS.items():
            body.append(
                [corpus, "paper(LZ4)", f"{paper['individual']:.2f}"]
                + [f"{paper[size]:.2f}" for size in self.container_sizes]
            )
        return format_table(
            headers, body, title="Table 2: compression ratio vs container size"
        )

    def series(self, corpus: str, codec: str) -> List[Tuple[int, float]]:
        for row_corpus, row_codec, _individual, by_size in self.rows:
            if (row_corpus, row_codec) == (corpus, codec):
                return sorted(by_size.items())
        raise KeyError((corpus, codec))


def run(
    corpus_size: int = 4000,
    container_sizes: Sequence[int] = DEFAULT_CONTAINER_SIZES,
    seed: int = 42,
    codecs: Sequence[Compressor] = None,
) -> Tab02Result:
    if codecs is None:
        codecs = (LZ4Compressor(), ZlibCompressor())
    corpora = {
        "Tweets": list(TweetValueGenerator(seed=seed).corpus(corpus_size)),
        "Places": list(PlacesValueGenerator(seed=seed).corpus(corpus_size)),
    }
    rows = []
    for corpus_name, values in corpora.items():
        for codec in codecs:
            individual = individual_compression_ratio(values, codec)
            by_size = {
                size: container_compression_ratio(values, size, codec)
                for size in container_sizes
            }
            rows.append((corpus_name, codec.name, individual, by_size))
    return Tab02Result(rows=rows, container_sizes=container_sizes)
