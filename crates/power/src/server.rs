use ntc_units::{Frequency, Percent, Power};

use crate::{CoreRegionModel, DramModel, LlcModel, UncoreModel};

/// The activity vector of one server at one instant.
///
/// # Examples
///
/// ```
/// use ntc_power::ServerLoad;
/// use ntc_units::Percent;
///
/// let load = ServerLoad::cpu_bound(Percent::new(80.0));
/// assert_eq!(load.cpu_active.value(), 80.0);
/// assert_eq!(load.read_bytes_per_sec, 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerLoad {
    /// Fraction of core-cycles doing useful work.
    pub cpu_active: Percent,
    /// Fraction of core-cycles stalled in the wait-for-memory state.
    pub cpu_wfm: Percent,
    /// Fraction of DRAM with banks activated.
    pub mem_active: Percent,
    /// DRAM read bandwidth in bytes per second.
    pub read_bytes_per_sec: f64,
    /// LLC read accesses per second (128-bit each).
    pub llc_reads_per_sec: f64,
    /// LLC write accesses per second (128-bit each).
    pub llc_writes_per_sec: f64,
}

impl ServerLoad {
    /// An idle server: no activity anywhere.
    pub fn idle() -> Self {
        Self {
            cpu_active: Percent::ZERO,
            cpu_wfm: Percent::ZERO,
            mem_active: Percent::ZERO,
            read_bytes_per_sec: 0.0,
            llc_reads_per_sec: 0.0,
            llc_writes_per_sec: 0.0,
        }
    }

    /// A purely CPU-bound load (Fig. 1's "no dynamic memory power"
    /// scenario): cores active, memory quiet.
    pub fn cpu_bound(cpu: Percent) -> Self {
        Self {
            cpu_active: cpu.clamp_full(),
            ..Self::idle()
        }
    }

    /// A mixed load: `cpu` busy cores of which `wfm_share` of the busy
    /// cycles stall on memory, with `mem` of DRAM active and a read
    /// stream proportional to `mem`.
    ///
    /// `peak_read_bw` is the server's peak DRAM read bandwidth; the
    /// realized stream is `mem/100 × peak_read_bw`.
    pub fn mixed(cpu: Percent, wfm_share: f64, mem: Percent, peak_read_bw: f64) -> Self {
        let cpu = cpu.clamp_full();
        let wfm = Percent::new(cpu.value() * wfm_share.clamp(0.0, 1.0));
        let active = cpu - wfm;
        let bw = peak_read_bw * mem.as_fraction().min(1.0);
        Self {
            cpu_active: active,
            cpu_wfm: wfm,
            mem_active: mem.clamp_full(),
            read_bytes_per_sec: bw,
            // one 128-bit LLC access per 16 bytes moved, as a first-order
            // coupling between DRAM traffic and LLC traffic
            llc_reads_per_sec: bw / 16.0,
            llc_writes_per_sec: bw / 64.0,
        }
    }
}

/// Per-component decomposition of server power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBreakdown {
    /// Core region (cores + L1/L2).
    pub cores: Power,
    /// Last-level cache.
    pub llc: Power,
    /// Memory controller, peripherals, IO and motherboard.
    pub uncore: Power,
    /// DRAM banks and access energy.
    pub dram: Power,
}

impl PowerBreakdown {
    /// Sum of all components.
    pub fn total(&self) -> Power {
        self.cores + self.llc + self.uncore + self.dram
    }
}

/// A complete server power model (§IV of the paper): core region + LLC +
/// uncore + DRAM.
///
/// Two presets are provided:
///
/// * [`ServerPowerModel::ntc`] — the proposed 16-core A57-class NTC server
///   in 28nm FD-SOI (100 MHz – 3.1 GHz);
/// * [`ServerPowerModel::conventional_e5_2620`] — a 6-core Intel
///   E5-2620-class server (1.2 – 2.4 GHz) whose narrow voltage range and
///   large static power make consolidation-at-Fmax optimal (Fig. 1b).
///
/// # Examples
///
/// ```
/// use ntc_power::ServerPowerModel;
/// use ntc_units::{Frequency, Percent};
///
/// let ntc = ServerPowerModel::ntc();
/// let busy = ntc.power(Frequency::from_ghz(1.9), Percent::FULL, Percent::ZERO);
/// let idle = ntc.power(Frequency::from_mhz(100.0), Percent::ZERO, Percent::ZERO);
/// // NTC servers are energy-proportional: busy/idle ratio is large.
/// assert!(busy.as_watts() / idle.as_watts() > 1.8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServerPowerModel {
    cores: CoreRegionModel,
    llc: LlcModel,
    uncore: UncoreModel,
    dram: DramModel,
    /// Peak DRAM read bandwidth in bytes/s, used to translate a memory
    /// utilization percentage into a read stream.
    peak_read_bw: f64,
    /// Average share of busy cycles spent in WFM per unit of memory
    /// utilization (couples memory intensity to core stalls).
    wfm_per_mem: f64,
}

impl ServerPowerModel {
    /// The proposed NTC server: 16 Cortex-A57-class cores in 28nm FD-SOI,
    /// 16 MB LLC, 16 GB DDR4-2400 (19.2 GB/s), paper §III-A.
    pub fn ntc() -> Self {
        Self {
            cores: CoreRegionModel::ntc_a57(16),
            llc: LlcModel::fdsoi_16mb(),
            uncore: UncoreModel::ntc_server(),
            dram: DramModel::ddr4_16gb(),
            peak_read_bw: 19.2e9,
            wfm_per_mem: 0.5,
        }
    }

    /// A conventional 6-core Intel E5-2620-class server (Fig. 1b).
    pub fn conventional_e5_2620() -> Self {
        Self {
            cores: CoreRegionModel::conventional_xeon(6),
            llc: LlcModel::bulk_15mb(),
            uncore: UncoreModel::conventional_server(),
            dram: DramModel::ddr3_32gb(),
            peak_read_bw: 21.3e9,
            wfm_per_mem: 0.5,
        }
    }

    /// Builds a server model from explicit components.
    pub fn from_parts(
        cores: CoreRegionModel,
        llc: LlcModel,
        uncore: UncoreModel,
        dram: DramModel,
        peak_read_bw: f64,
    ) -> Self {
        assert!(peak_read_bw > 0.0, "peak read bandwidth must be positive");
        Self {
            cores,
            llc,
            uncore,
            dram,
            peak_read_bw,
            wfm_per_mem: 0.5,
        }
    }

    /// Replaces the motherboard/fan/disk ("static") power — the knob the
    /// paper sweeps from 5 W to 45 W in Fig. 7.
    pub fn with_static_power(mut self, motherboard: Power) -> Self {
        self.uncore = self.uncore.with_motherboard(motherboard);
        self
    }

    /// Highest sustainable core frequency.
    pub fn fmax(&self) -> Frequency {
        self.cores.vf_curve().fmax()
    }

    /// Lowest DVFS level.
    pub fn fmin(&self) -> Frequency {
        self.cores.vf_curve().fmin()
    }

    /// The discrete DVFS levels of this server.
    pub fn dvfs_levels(&self) -> Vec<Frequency> {
        self.cores.vf_curve().dvfs_levels()
    }

    /// The core-region model.
    pub fn cores(&self) -> &CoreRegionModel {
        &self.cores
    }

    /// The LLC model.
    pub fn llc(&self) -> &LlcModel {
        &self.llc
    }

    /// The uncore model.
    pub fn uncore(&self) -> &UncoreModel {
        &self.uncore
    }

    /// The DRAM model.
    pub fn dram(&self) -> &DramModel {
        &self.dram
    }

    /// Peak DRAM read bandwidth in bytes per second.
    pub fn peak_read_bw(&self) -> f64 {
        self.peak_read_bw
    }

    /// Full power evaluation for an explicit [`ServerLoad`].
    pub fn power_at(&self, f: Frequency, load: &ServerLoad) -> Power {
        self.breakdown(f, load).total()
    }

    /// Per-component power for an explicit [`ServerLoad`].
    pub fn breakdown(&self, f: Frequency, load: &ServerLoad) -> PowerBreakdown {
        let v = self.cores.vf_curve().voltage_at(f);
        PowerBreakdown {
            cores: self.cores.power(f, load.cpu_active, load.cpu_wfm),
            llc: self
                .llc
                .power(v, load.llc_reads_per_sec, load.llc_writes_per_sec),
            uncore: self.uncore.power(f),
            dram: self.dram.power(load.mem_active, load.read_bytes_per_sec),
        }
    }

    /// Convenience power evaluation from the two utilization numbers the
    /// allocation policies track per server: CPU utilization and memory
    /// utilization (both as a share of server capacity at frequency `f`).
    ///
    /// Memory utilization drives both the DRAM bank-active fraction and a
    /// proportional read stream, and couples back into core WFM stalls.
    pub fn power(&self, f: Frequency, cpu_util: Percent, mem_util: Percent) -> Power {
        let load = ServerLoad::mixed(
            cpu_util,
            self.wfm_per_mem * mem_util.as_fraction().min(1.0),
            mem_util,
            self.peak_read_bw,
        );
        self.power_at(f, &load)
    }

    /// `F_NTC_opt`, the data-center-optimal frequency of §V-A (≈1.9 GHz
    /// for the NTC server): the DVFS level minimizing fully loaded power
    /// per unit of served capacity, `P(f)/f`. No server count enters it.
    pub fn ntc_optimal_frequency(&self) -> Frequency {
        let full = ServerLoad::cpu_bound(Percent::FULL);
        let per_mhz = |f: Frequency| self.power_at(f, &full).as_watts() / f.as_mhz();
        self.dvfs_levels()
            .into_iter()
            .min_by(|&a, &b| {
                per_mhz(a)
                    .partial_cmp(&per_mhz(b))
                    .expect("finite power values")
            })
            .expect("the DVFS table is never empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Power of a fully loaded (CPU-bound) server at Fmax.
    fn peak_watts(m: &ServerPowerModel) -> f64 {
        m.power_at(m.fmax(), &ServerLoad::cpu_bound(Percent::FULL))
            .as_watts()
    }

    /// Power of an idle-but-on server at its lowest operating point.
    fn idle_watts(m: &ServerPowerModel) -> f64 {
        m.power_at(m.fmin(), &ServerLoad::idle()).as_watts()
    }

    #[test]
    fn ntc_magnitudes_match_fig1a() {
        // Fig 1a: 80 fully-busy servers at 3.1 GHz draw ~11 kW, i.e.
        // ~130-145 W per server.
        let m = ServerPowerModel::ntc();
        let peak = peak_watts(&m);
        assert!(
            (110.0..160.0).contains(&peak),
            "NTC peak power should be ~130 W, got {peak}"
        );
        // And the static floor is the uncore constant + DRAM idle.
        let idle = idle_watts(&m);
        assert!(
            (26.0..34.0).contains(&idle),
            "NTC idle power should be ~28 W, got {idle}"
        );
    }

    #[test]
    fn conventional_is_not_proportional() {
        let c = ServerPowerModel::conventional_e5_2620();
        let dyn_range = peak_watts(&c) / idle_watts(&c);
        let ntc = ServerPowerModel::ntc();
        let ntc_range = peak_watts(&ntc) / idle_watts(&ntc);
        assert!(
            ntc_range > dyn_range,
            "the NTC server must be more energy-proportional: ntc {ntc_range:.2} vs conv {dyn_range:.2}"
        );
    }

    #[test]
    fn memory_power_is_linear_in_utilization() {
        let m = ServerPowerModel::ntc();
        let f = Frequency::from_ghz(1.9);
        let p0 = m.power(f, Percent::new(50.0), Percent::ZERO).as_watts();
        let p1 = m
            .power(f, Percent::new(50.0), Percent::new(20.0))
            .as_watts();
        let p2 = m
            .power(f, Percent::new(50.0), Percent::new(40.0))
            .as_watts();
        let d1 = p1 - p0;
        let d2 = p2 - p1;
        // The DRAM contribution is linear; the WFM coupling makes core
        // power *fall* slightly, but the increments stay near-equal.
        assert!(d1 > 0.0, "memory activity must add power");
        assert!((d2 - d1).abs() < 0.35 * d1.abs() + 0.2);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let m = ServerPowerModel::ntc();
        let load = ServerLoad::mixed(
            Percent::new(70.0),
            0.2,
            Percent::new(25.0),
            m.peak_read_bw(),
        );
        let f = Frequency::from_ghz(2.4);
        let b = m.breakdown(f, &load);
        assert!((b.total().as_watts() - m.power_at(f, &load).as_watts()).abs() < 1e-12);
        assert!(b.cores.as_watts() > 0.0);
        assert!(b.llc.as_watts() > 0.0);
        assert!(b.uncore.as_watts() > 0.0);
        assert!(b.dram.as_watts() > 0.0);
    }

    #[test]
    fn static_power_knob() {
        let base = ServerPowerModel::ntc();
        let heavy = ServerPowerModel::ntc().with_static_power(Power::from_watts(45.0));
        let f = Frequency::from_ghz(1.9);
        let delta = heavy.power(f, Percent::FULL, Percent::ZERO).as_watts()
            - base.power(f, Percent::FULL, Percent::ZERO).as_watts();
        assert!((delta - 30.0).abs() < 1e-9);
    }

    #[test]
    fn wfm_coupling_reduces_core_power() {
        let m = ServerPowerModel::ntc();
        let f = Frequency::from_ghz(2.0);
        let cpu = Percent::new(80.0);
        let b_dry = m.breakdown(f, &ServerLoad::cpu_bound(cpu));
        let b_wet = m.breakdown(
            f,
            &ServerLoad::mixed(cpu, 0.5, Percent::new(40.0), m.peak_read_bw()),
        );
        assert!(b_wet.cores < b_dry.cores, "WFM cycles must burn less");
        assert!(b_wet.dram > b_dry.dram, "memory activity must cost power");
    }
}
