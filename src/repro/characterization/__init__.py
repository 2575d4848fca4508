"""Cell characterization flows (DC current tables, capacitances, NLDM)."""

from .capacitance import (
    CapacitanceRequest,
    CellCapacitances,
    characterize_cell_capacitances,
)
from .characterize import (
    cell_characterization_job,
    characterization_key,
    characterize_baseline_mis,
    characterize_cell_models,
    characterize_mcsm,
    characterize_sis,
    nldm_characterization_job,
    nldm_characterization_key,
    run_nldm_characterization,
)
from .config import CharacterizationConfig
from .dc_tables import (
    characterize_mcsm_currents,
    characterize_mis_current,
    characterize_sis_current,
)
from .nldm import NLDMTable, characterize_nldm, characterize_nldm_arcs
from .probe import ProbeBench

__all__ = [
    "CharacterizationConfig",
    "ProbeBench",
    "characterize_sis_current",
    "characterize_mis_current",
    "characterize_mcsm_currents",
    "CapacitanceRequest",
    "CellCapacitances",
    "characterize_cell_capacitances",
    "characterize_sis",
    "characterize_baseline_mis",
    "characterize_mcsm",
    "characterize_cell_models",
    "characterize_nldm",
    "characterize_nldm_arcs",
    "cell_characterization_job",
    "characterization_key",
    "nldm_characterization_job",
    "nldm_characterization_key",
    "run_nldm_characterization",
    "NLDMTable",
]
