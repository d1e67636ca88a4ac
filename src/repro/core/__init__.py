"""The paper's core contribution: DDP protocol engines and their types."""

from repro.core.config import (ABLATION_CONFIGS, B_BATCHING, B_BROADCAST,
                               COMBINED, COMBINED_BATCHING,
                               COMBINED_BROADCAST, MINOS_B, MINOS_O,
                               ProtocolConfig, config_by_name)
from repro.core.engine import ReadResult, WriteResult, WriteTxn
from repro.core.messages import Message, MsgType
from repro.core.metadata import MetadataTable, RecordMeta
from repro.core.model import (ALL_MODELS, LIN_EVENT, LIN_RENF, LIN_SCOPE,
                              LIN_STRICT, LIN_SYNCH, DDPModel, Persistency,
                              model_by_name)
from repro.core.timestamp import INITIAL_TS, NULL_TS, Timestamp

__all__ = [
    "ABLATION_CONFIGS",
    "ALL_MODELS",
    "B_BATCHING",
    "B_BROADCAST",
    "COMBINED",
    "COMBINED_BATCHING",
    "COMBINED_BROADCAST",
    "DDPModel",
    "INITIAL_TS",
    "LIN_EVENT",
    "LIN_RENF",
    "LIN_SCOPE",
    "LIN_STRICT",
    "LIN_SYNCH",
    "MINOS_B",
    "MINOS_O",
    "Message",
    "MetadataTable",
    "MsgType",
    "NULL_TS",
    "Persistency",
    "ProtocolConfig",
    "ReadResult",
    "RecordMeta",
    "Timestamp",
    "WriteResult",
    "WriteTxn",
    "config_by_name",
    "model_by_name",
]
