//! QoS-targeted policy tuning (Table 2 and Section 8.6).
//!
//! The paper's methodology: "programmers should first decide the minbits to
//! make the QoS above the QoS threshold, then reduce the minbits, and try
//! to fine-tune the incidental backup policy and the recompute times to
//! compensate the QoS loss." [`table2`] records the paper's hand-tuned
//! operating points; a policy runs as its [`QosPolicy::pragmas`] lower
//! ([`PragmaSet::lower`]).

use crate::pragma::{Pragma, PragmaSet};
use nvp_kernels::KernelId;
use nvp_nvm::RetentionPolicy;
use std::fmt;

/// A quality-of-service target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QosTarget {
    /// Mean output PSNR must reach this many dB.
    PsnrDb(f64),
    /// Compressed output size must stay below this multiple of the precise
    /// size (the JPEG testbench's metric).
    SizeInflation(f64),
}

impl fmt::Display for QosTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QosTarget::PsnrDb(db) => write!(f, "PSNR {db:.0} dB"),
            QosTarget::SizeInflation(x) => write!(f, "{:.0}% size", x * 100.0),
        }
    }
}

/// A tuned incidental operating point (one Table 2 row).
#[derive(Debug, Clone, PartialEq)]
pub struct QosPolicy {
    /// The testbench.
    pub kernel: KernelId,
    /// The QoS target.
    pub target: QosTarget,
    /// Minimum incidental bitwidth.
    pub minbits: u8,
    /// Recompute-and-combine passes (0 = none).
    pub recompute_passes: u8,
    /// Incidental backup retention policy.
    pub backup: RetentionPolicy,
}

impl QosPolicy {
    /// Lowers this policy to a pragma set (Figure 8 style).
    pub fn pragmas(&self) -> PragmaSet {
        let mut v = vec![
            Pragma::Incidental {
                var: "src".into(),
                minbits: self.minbits,
                maxbits: 8,
                policy: self.backup,
            },
            Pragma::RecoverFrom {
                variable: "frame".into(),
            },
        ];
        if self.recompute_passes > 0 {
            v.push(Pragma::Recompute {
                buf: "dst".into(),
                minbits: self.minbits,
            });
        }
        PragmaSet::from_pragmas(v).expect("tuned policies are consistent")
    }
}

impl fmt::Display for QosPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: target {}, minbits {}, recompute {}, backup {}",
            self.kernel, self.target, self.minbits, self.recompute_passes, self.backup
        )
    }
}

/// The paper's fine-tuned policies (Table 2).
pub fn table2() -> Vec<QosPolicy> {
    vec![
        QosPolicy {
            kernel: KernelId::Integral,
            target: QosTarget::PsnrDb(20.0),
            minbits: 2,
            recompute_passes: 0,
            backup: RetentionPolicy::Parabola,
        },
        QosPolicy {
            kernel: KernelId::Median,
            target: QosTarget::PsnrDb(50.0),
            minbits: 4,
            recompute_passes: 2,
            backup: RetentionPolicy::Linear,
        },
        QosPolicy {
            kernel: KernelId::Sobel,
            target: QosTarget::PsnrDb(8.0),
            minbits: 4,
            recompute_passes: 2,
            backup: RetentionPolicy::Linear,
        },
        QosPolicy {
            kernel: KernelId::JpegEncode,
            target: QosTarget::SizeInflation(1.5),
            minbits: 3,
            recompute_passes: 0,
            backup: RetentionPolicy::Log,
        },
    ]
}

/// The Table 2 policy for `kernel`, or a sensible default (linear backup,
/// minbits 4) for testbenches the table does not list.
pub fn policy_for(kernel: KernelId) -> QosPolicy {
    table2()
        .into_iter()
        .find(|p| p.kernel == kernel)
        .unwrap_or(QosPolicy {
            kernel,
            target: QosTarget::PsnrDb(20.0),
            minbits: 4,
            recompute_passes: 0,
            backup: RetentionPolicy::Linear,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper_rows() {
        let t = table2();
        assert_eq!(t.len(), 4);
        let median = t.iter().find(|p| p.kernel == KernelId::Median).unwrap();
        assert_eq!(median.minbits, 4);
        assert_eq!(median.recompute_passes, 2);
        assert_eq!(median.backup, RetentionPolicy::Linear);
        let jpeg = t.iter().find(|p| p.kernel == KernelId::JpegEncode).unwrap();
        assert_eq!(jpeg.backup, RetentionPolicy::Log);
        assert!(matches!(jpeg.target, QosTarget::SizeInflation(x) if (x - 1.5).abs() < 1e-9));
    }

    #[test]
    fn policy_lowers_to_pragmas() {
        let p = policy_for(KernelId::Median);
        let set = p.pragmas();
        assert_eq!(set.incidental(), Some((4, 8, RetentionPolicy::Linear)));
        assert!(set.rolls_forward());
        assert_eq!(set.recompute_minbits(), Some(4));
    }

    #[test]
    fn unlisted_kernels_get_default() {
        let p = policy_for(KernelId::Fft);
        assert_eq!(p.minbits, 4);
        assert_eq!(p.backup, RetentionPolicy::Linear);
    }

    #[test]
    fn display_is_informative() {
        let s = policy_for(KernelId::Sobel).to_string();
        assert!(s.contains("sobel"));
        assert!(s.contains("minbits"));
    }

    /// Every Table 2 policy lowers to the incidental NVP at its minbits,
    /// backing up under its retention policy.
    #[test]
    fn table2_policies_lower_to_incidental_runs() {
        use nvp_sim::ExecMode;
        for policy in table2() {
            assert_eq!(
                policy.pragmas().lower(),
                (ExecMode::Incidental(policy.minbits, 8), policy.backup),
                "{policy}"
            );
        }
    }
}
