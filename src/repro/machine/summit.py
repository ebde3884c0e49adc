"""DOE Summit projection.

The paper's introduction targets "the planned DOE Summit and Sierra
machines"; this module instantiates the machine model with Summit's
published node architecture (4,608 nodes x 6 V100s, NVLink instead of
PCIe gen-2, dual-rail EDR InfiniBand in a fat tree) so the scaling
studies can be projected forward — the reproduction's answer to
"preserve current capabilities on upcoming machines".
"""


from repro.machine.gpu import GPUModel
from repro.machine.network import NetworkModel
from repro.machine.titan import TitanSpec

SUMMIT = TitanSpec(
    cores_per_node=42,              # 2 x POWER9, SMT cores usable
    cpu_clock_hz=3.1e9,
    host_memory_bytes=512 * 1024 ** 3,
    node_memory_bandwidth=340e9,
    gpus_per_node=6,
    num_nodes=4608,
    network_latency_s=1.0e-6,       # EDR IB
    injection_bandwidth=23e9,       # dual-rail EDR per node
    pcie_bandwidth=50e9,            # NVLink 2.0 CPU<->GPU
    pcie_latency_s=2e-6,
    gpu_memory_bytes=16 * 1024 ** 3,   # V100 16 GB
    gpu_peak_flops=7.8e12,
    gpu_memory_bandwidth=900e9,
    gpu_sm_count=80,
    gpu_threads_per_sm=2048,
    gpu_kernel_launch_s=5e-6,
    gpu_copy_engines=2,
)

#: V100 traversal rate scaled from the K20X calibration by memory
#: bandwidth (the kernel is gather-latency/bandwidth bound)
V100 = GPUModel(
    spec=SUMMIT,
    dda_steps_per_second=6e8 * (SUMMIT.gpu_memory_bandwidth / 250e9),
)

SUMMIT_NETWORK = NetworkModel(
    latency_s=SUMMIT.network_latency_s,
    bandwidth=SUMMIT.injection_bandwidth,
)


def summit_simulator():
    """A ClusterSimulator configured for Summit-projected runs."""
    from repro.dessim.cluster import ClusterSimulator  # repro: allow(layer-violation) dessim builds on machine

    return ClusterSimulator(spec=SUMMIT, network=SUMMIT_NETWORK, gpu=V100)
