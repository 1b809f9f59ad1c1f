//! Execution configurations and AVMM options.
//!
//! The paper's evaluation (§6.2) measures five configurations:
//!
//! | label          | virtualized | replay recording | tamper-evident log | signatures |
//! |----------------|-------------|------------------|--------------------|------------|
//! | `bare-hw`      | no          | no               | no                 | no         |
//! | `vmware-norec` | yes         | no               | no                 | no         |
//! | `vmware-rec`   | yes         | yes              | no                 | no         |
//! | `avmm-nosig`   | yes         | yes              | yes                | no         |
//! | `avmm-rsa768`  | yes         | yes              | yes                | RSA-768    |
//!
//! [`ExecConfig`] reproduces that matrix; the game scenarios in the
//! experiment harness are parameterised by it.

use avm_crypto::keys::SignatureScheme;

/// One of the paper's five measurement configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecConfig {
    /// The game runs directly on the hardware; no VMM at all.
    BareHw,
    /// Plain virtualization, no recording (`vmware-norec`).
    Vmm,
    /// Virtualization plus deterministic-replay recording (`vmware-rec`).
    VmmRecord,
    /// Full AVMM but with the null signature scheme (`avmm-nosig`).
    AvmmNoSig,
    /// The full system with 768-bit RSA signatures (`avmm-rsa768`).
    AvmmRsa768,
}

impl ExecConfig {
    /// All five configurations in the order the paper plots them.
    pub const ALL: [ExecConfig; 5] = [
        ExecConfig::BareHw,
        ExecConfig::Vmm,
        ExecConfig::VmmRecord,
        ExecConfig::AvmmNoSig,
        ExecConfig::AvmmRsa768,
    ];

    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            ExecConfig::BareHw => "bare-hw",
            ExecConfig::Vmm => "vmware-norec",
            ExecConfig::VmmRecord => "vmware-rec",
            ExecConfig::AvmmNoSig => "avmm-nosig",
            ExecConfig::AvmmRsa768 => "avmm-rsa768",
        }
    }

    /// Whether the tamper-evident log (authenticators, acks) is maintained.
    pub fn tamper_evident(&self) -> bool {
        matches!(self, ExecConfig::AvmmNoSig | ExecConfig::AvmmRsa768)
    }

    /// The signature scheme this configuration uses.
    pub fn signature_scheme(&self) -> SignatureScheme {
        match self {
            ExecConfig::AvmmRsa768 => SignatureScheme::Rsa(768),
            _ => SignatureScheme::Null,
        }
    }
}

impl core::fmt::Display for ExecConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Tunable options of the recording AVMM.
#[derive(Debug, Clone)]
pub struct AvmmOptions {
    /// Signature scheme used for authenticators and per-packet signatures.
    pub signature_scheme: SignatureScheme,
    /// Whether the tamper-evident layer (authenticators, acknowledgments) is
    /// active.  When false, the AVMM still records replay information — this
    /// is the `vmware-rec` configuration.
    pub tamper_evident: bool,
    /// Enable the clock-read optimisation of §6.5: consecutive reads within
    /// 5 µs are answered with exponentially increasing artificial delays
    /// (50 µs, doubling, capped at 5 ms — the paper's constants), collapsing
    /// busy-wait loops.
    pub clock_read_optimization: bool,
    /// Take a snapshot automatically every this many log entries
    /// (`None` disables automatic snapshots; they can still be requested).
    pub snapshot_every_entries: Option<u64>,
    /// Whether snapshots carry a full memory dump (`true`, the paper
    /// prototype's behaviour reported in §6.12) or only the chunks dirtied
    /// since the previous snapshot (`false`, the optimised variant — sparse
    /// writers then log, store and ship O(dirty chunks) per capture).
    pub full_memory_snapshots: bool,
}

impl Default for AvmmOptions {
    fn default() -> Self {
        AvmmOptions {
            signature_scheme: SignatureScheme::Rsa(768),
            tamper_evident: true,
            clock_read_optimization: false,
            snapshot_every_entries: None,
            full_memory_snapshots: true,
        }
    }
}

impl AvmmOptions {
    /// Options matching a given measurement configuration.
    ///
    /// `BareHw` and `Vmm` do not record at all; callers normally skip the
    /// AVMM entirely for those, but the returned options (recording, no
    /// tamper evidence, no signatures) are still usable for harness code that
    /// wants a uniform code path.
    pub fn for_config(config: ExecConfig) -> AvmmOptions {
        AvmmOptions {
            signature_scheme: config.signature_scheme(),
            tamper_evident: config.tamper_evident(),
            ..AvmmOptions::default()
        }
    }

    /// Returns options with the clock-read optimisation enabled.
    pub fn with_clock_optimization(mut self) -> AvmmOptions {
        self.clock_read_optimization = true;
        self
    }

    /// Returns options with automatic snapshots every `n` log entries.
    pub fn with_snapshot_every(mut self, n: u64) -> AvmmOptions {
        self.snapshot_every_entries = Some(n);
        self
    }

    /// Returns options using the given signature scheme.
    pub fn with_scheme(mut self, scheme: SignatureScheme) -> AvmmOptions {
        self.signature_scheme = scheme;
        self
    }

    /// Returns options taking incremental (dirty-chunk-only) snapshots
    /// instead of full memory dumps.
    pub fn with_incremental_snapshots(mut self) -> AvmmOptions {
        self.full_memory_snapshots = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_matrix_matches_paper() {
        assert_eq!(ExecConfig::ALL.len(), 5);
        assert!(!ExecConfig::VmmRecord.tamper_evident());
        assert!(ExecConfig::AvmmNoSig.tamper_evident());
        assert_eq!(
            ExecConfig::AvmmNoSig.signature_scheme(),
            SignatureScheme::Null
        );
        assert_eq!(
            ExecConfig::AvmmRsa768.signature_scheme(),
            SignatureScheme::Rsa(768)
        );
        assert_eq!(ExecConfig::AvmmRsa768.label(), "avmm-rsa768");
        assert_eq!(ExecConfig::BareHw.to_string(), "bare-hw");
    }

    #[test]
    fn options_builders() {
        let o = AvmmOptions::default();
        assert!(o.tamper_evident);
        assert!(!o.clock_read_optimization);

        let o = AvmmOptions::for_config(ExecConfig::AvmmNoSig)
            .with_clock_optimization()
            .with_snapshot_every(100);
        assert_eq!(o.signature_scheme, SignatureScheme::Null);
        assert!(o.clock_read_optimization);
        assert_eq!(o.snapshot_every_entries, Some(100));

        let o = AvmmOptions::for_config(ExecConfig::VmmRecord);
        assert!(!o.tamper_evident);

        let o = AvmmOptions::default().with_scheme(SignatureScheme::Rsa(512));
        assert_eq!(o.signature_scheme, SignatureScheme::Rsa(512));
    }
}
