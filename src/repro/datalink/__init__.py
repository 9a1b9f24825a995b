"""Data-link sublayers (Fig 2): encoding, framing, error detection,
error recovery (point-to-point branch) or MAC (broadcast branch).

The framing sublayer is itself nested-sublayered into stuffing over
flags (:mod:`repro.datalink.framing`) and carries the verified
bit-stuffing artifact of Section 4.1.
"""

from .arq import (
    ARQ_HEADER,
    ARQ_SCHEMES,
    GoBackNArq,
    SelectiveRepeatArq,
    StopAndWaitArq,
)
from .crc import CRC8, CRC16_ARC, CRC16_CCITT, CRC32, CRC64_ECMA, CRC_SPECS, CrcSpec
from .errordetect import (
    CrcCode,
    DetectionCode,
    ErrorDetectSublayer,
    InternetChecksum,
    ParityByte,
)
from .mac import BROADCAST, MAC_HEADER, MAC_SCHEMES, ChannelView, CsmaMac, PureAlohaMac
from .stacks import (
    build_hdlc_stack,
    build_wireless_station,
    collect_bytes,
    connect_hdlc_pair,
    send_bytes,
)

__all__ = [
    "ARQ_HEADER",
    "ARQ_SCHEMES",
    "BROADCAST",
    "CRC16_ARC",
    "CRC16_CCITT",
    "CRC32",
    "CRC64_ECMA",
    "CRC8",
    "CRC_SPECS",
    "ChannelView",
    "CrcCode",
    "CrcSpec",
    "CsmaMac",
    "DetectionCode",
    "ErrorDetectSublayer",
    "GoBackNArq",
    "InternetChecksum",
    "MAC_HEADER",
    "MAC_SCHEMES",
    "ParityByte",
    "PureAlohaMac",
    "SelectiveRepeatArq",
    "StopAndWaitArq",
    "build_hdlc_stack",
    "build_wireless_station",
    "collect_bytes",
    "connect_hdlc_pair",
    "send_bytes",
]
