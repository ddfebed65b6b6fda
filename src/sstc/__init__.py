"""Structured sparse ternary weight coding for neural networks.

Sub-vectors of a weight matrix are restricted to at most K non-zero ternary
entries out of N, so each sub-vector is one entry of a small enumerable
code table and is stored as a bit-packed table index.  The package covers
the full pipeline: code enumeration and ranking, bit-exact model files,
storage accounting, compressed inference (BLAS serving with a
multiplication-free add/subtract audit path), and the
prune-quantize-retrain training loop that produces such weights.
"""

from .codes import (ORIENTATIONS, CodeParams, CodeTable, DEFAULT_ENTRY_CAP, address_bits,
                    build_table, count_entries, from_subvectors, rank_subvectors,
                    subvectors, table_storage_bits, table_storage_kb, unrank_subvectors)
from .bitpack import pack_indices, unpack_indices
from .errors import SstcError, ValidationError
from .kernel import CompressedFCLayer, PETrace, compressed_forward, dense_matvec, pe_trace
from .prune import SparsitySchedule, structured_prune
from .quantize import find_step_size, quantize_weight
from .store import (BatchNormParams, EncodedLayer, LayerFormat, ModelFile,
                    StorageReport, WeightNormTag, decode_layer, encode_layer,
                    model_from_arrays, read_model, serialize_model,
                    deserialize_model, storage_report, write_model)
from .training import (LayerSpec, Network, TrainConfig, TrainData, WeightPolicy,
                       adam_step, backward_masked, build_network, evaluate,
                       forward, network_to_model, train_float, train_structured)

__version__ = "0.1.0"
