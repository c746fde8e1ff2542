"""biobotsim: hardware-free models of a cyborg-insect assembly line and
swarm coverage experiment.

Modules: morphology (the fixation rig), vision (pronotum masks and
metrics), assembly (pose planning and the process state machine),
neurosignal (synthetic responses and spike detection), locomotion (calibrated agent
dynamics), swarm (dispersion with UWB localization), config and cli.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .morphology import (FixationRig, exposure_safety_margin,
                         exposure_sufficient, lifting_height)
from .vision import (Mask, PronotumShapeParams, ReferencePoint, SegMetrics,
                     augment, dsc, extract_reference_point, iou, read_pgm,
                     synth_pronotum, write_pgm)
from .assembly import (AssemblyProcess, AssemblyState, ImplantPose,
                       PayloadSpec, PixelToArmCalibration, advance,
                       batch_assemble, check_exposure, check_payload,
                       check_workspace, plan_assembly, solve_pitch, walk_all)
from .neurosignal import (SpikeParams, SpikeTrain, Trace, expected_spike_rate,
                          run_spike_pipeline, synth_neural_response)
from .locomotion import (AgentParams, AgentState, AUTO_PRESET, MANUAL_PRESET,
                         PRESETS, StimCommand, StimKind, apply_command)
from .swarm import (Arena, CoverageGrid, Rect, SwarmRun, UwbSystem,
                    coverage_percent, coverage_rate, dispersion_batch,
                    simulate)
from .config import RunConfig, ConfigError, load_config
from .seeding import child_seed
