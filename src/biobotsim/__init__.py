"""biobotsim: hardware-free models of a cyborg-insect assembly line and
swarm coverage experiment.

Modules: morphology (fixation geometry), vision (pronotum masks and
metrics), assembly (pose planning and the process state machine),
neurosignal (synthetic responses and spike detection), locomotion (calibrated agent
dynamics), swarm (dispersion with UWB localization), config and cli.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .morphology import (FixationRig, InsectMorphology, exposure_safety_margin,
                         exposure_sufficient, lifting_height, sample_morphology)
from .vision import (Mask, PronotumShapeParams, ReferencePoint, SegMetrics,
                     augment, dsc, extract_reference_point, iou, mse_pr,
                     read_pgm, synth_pronotum, write_pgm)
from .assembly import (AssemblyProcess, AssemblyState, ImplantPose,
                       PayloadSpec, PixelToArmCalibration, Workspace, advance,
                       batch_assemble, check_payload, check_workspace,
                       plan_assembly, solve_pitch, walk_all)
from .neurosignal import (SpikeTrain, Trace, bandpass, blank_artifacts,
                          detect_spikes, expected_spike_rate,
                          run_spike_pipeline, synth_neural_response,
                          threshold)
from .locomotion import (AgentParams, AgentState, AUTO_PRESET, MANUAL_PRESET,
                         PRESETS, StimCommand, StimKind, apply_command, step)
from .swarm import (Arena, CoverageGrid, MultilaterationResult, Rect, SwarmRun,
                    UwbSystem, coverage_percent, coverage_rate, multilaterate,
                    simulate, simulate_ranges, update_coverage)
from .config import RunConfig, ConfigError, load_config
from .seeding import child_seed
