//! Flow ledgers: one declaration per set of counters.
//!
//! A serving layer keeps *exact, per-instance* counts (so a test can
//! assert `submitted == served + degraded + shed` on one server while
//! others run in the same process) and mirrors each of them into the
//! process-wide registry under a stable name. [`ledger!`](crate::ledger)
//! generates both halves, the typed snapshot, and the flow identities as
//! data from one table of `field => "registry.name"` lines, so a counter
//! is spelled once instead of five times.

use crate::metrics::{metrics, Counter};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One ledger counter: the owner's exact count plus a pre-resolved handle
/// to its process-wide mirror, so an increment is two relaxed atomic adds
/// and never a registry lock.
#[derive(Debug)]
pub struct LedgerCounter {
    local: AtomicU64,
    mirror: Arc<Counter>,
}

impl LedgerCounter {
    /// A zeroed counter mirrored into the registry counter `name`.
    pub fn new(name: &str) -> LedgerCounter {
        LedgerCounter {
            local: AtomicU64::new(0),
            mirror: metrics().counter(name),
        }
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.local.fetch_add(n, Ordering::Relaxed);
        self.mirror.add(n);
    }

    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// This owner's count (the mirror may include other owners').
    pub fn get(&self) -> u64 {
        self.local.load(Ordering::Relaxed)
    }
}

/// One flow identity over a ledger snapshot `S`: `lhs(s) <rel> rhs(s)`.
pub struct Identity<S> {
    /// The identity as written in the declaration.
    pub text: &'static str,
    /// Left-hand sum.
    pub lhs: fn(&S) -> u64,
    /// The relation (`==`, `<=` or `>=`).
    pub holds: fn(u64, u64) -> bool,
    /// Right-hand sum.
    pub rhs: fn(&S) -> u64,
}

/// Every identity `snap` violates, each rendered with both sides' values.
/// Empty means the books balance.
pub fn violations<S>(snap: &S, identities: &[Identity<S>]) -> Vec<String> {
    identities
        .iter()
        .filter_map(|id| {
            let (l, r) = ((id.lhs)(snap), (id.rhs)(snap));
            (!(id.holds)(l, r)).then(|| format!("{}: {l} vs {r}", id.text))
        })
        .collect()
}

/// Declare a ledger: the struct of live counters, its `Copy` snapshot,
/// and the identities the snapshot must satisfy at quiescence.
///
/// ```
/// muve_obs::ledger! {
///     /// Live counters.
///     pub struct Doors =>
///     /// Point-in-time copy.
///     pub struct DoorsSnapshot {
///         /// People who came in.
///         entered => "doc.doors.entered",
///         /// People who left.
///         left => "doc.doors.left",
///     }
///     identities {
///         (left) <= (entered);
///     }
/// }
/// let doors = Doors::new();
/// doors.entered.incr();
/// assert_eq!(doors.snapshot().entered, 1);
/// assert!(doors.snapshot().violations().is_empty());
/// ```
///
/// Optional sections, in this order after the counter block: `extra { f:
/// Type, }` adds snapshot-only fields (defaulted by `snapshot()`, for the
/// owner to fill); `histograms { f => "name", }` adds pre-resolved
/// [`Histogram`](crate::Histogram) handles to the live struct;
/// `identities { (a + b) == (c); }` lists sums of counters related by
/// `==`, `<=` or `>=`.
#[macro_export]
macro_rules! ledger {
    (
        $(#[$lmeta:meta])*
        $lvis:vis struct $Ledger:ident =>
        $(#[$smeta:meta])*
        $svis:vis struct $Snap:ident {
            $( $(#[$fmeta:meta])* $field:ident => $name:literal, )+
        }
        $( extra { $( $(#[$xmeta:meta])* $xfield:ident : $xty:ty, )+ } )?
        $( histograms { $( $hist:ident => $hname:literal, )+ } )?
        $( identities {
            $( ($l0:ident $(+ $l:ident)*) $op:tt ($r0:ident $(+ $r:ident)*); )+
        } )?
    ) => {
        $(#[$lmeta])*
        #[derive(Debug)]
        $lvis struct $Ledger {
            $( pub(crate) $field: $crate::LedgerCounter, )+
            $($( pub(crate) $hist: ::std::sync::Arc<$crate::Histogram>, )+)?
        }

        impl $Ledger {
            pub(crate) fn new() -> $Ledger {
                $Ledger {
                    $( $field: $crate::LedgerCounter::new($name), )+
                    $($( $hist: $crate::metrics().histogram($hname), )+)?
                }
            }

            /// A point-in-time copy of every counter.
            pub fn snapshot(&self) -> $Snap {
                $Snap {
                    $( $field: self.$field.get(), )+
                    $($( $xfield: ::std::default::Default::default(), )+)?
                }
            }
        }

        $(#[$smeta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $svis struct $Snap {
            $( $(#[$fmeta])* pub $field: u64, )+
            $($( $(#[$xmeta])* pub $xfield: $xty, )+)?
        }

        impl $Snap {
            /// The counter-only flow identities this ledger declares.
            pub const IDENTITIES: &'static [$crate::Identity<$Snap>] = &[
                $($( $crate::Identity {
                    text: stringify!($l0 $(+ $l)* $op $r0 $(+ $r)*),
                    lhs: |s| s.$l0 $(+ s.$l)*,
                    holds: |l, r| l $op r,
                    rhs: |s| s.$r0 $(+ s.$r)*,
                }, )+)?
            ];

            /// The declared identities this snapshot violates (empty when
            /// the books balance; exact only at quiescence).
            pub fn violations(&self) -> ::std::vec::Vec<::std::string::String> {
                $crate::violations(self, Self::IDENTITIES)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    ledger! {
        /// Live test counters.
        struct Books =>
        /// Their snapshot.
        struct BooksSnapshot {
            /// In.
            taken => "test.obs.ledger.taken",
            /// Out, the good way.
            returned => "test.obs.ledger.returned",
            /// Out, the bad way.
            lost => "test.obs.ledger.lost",
        }
        extra {
            /// Filled by the owner.
            on_loan: usize,
        }
        histograms {
            loan_days => "test.obs.ledger.loan_days",
        }
        identities {
            (taken) == (returned + lost);
            (lost) <= (returned);
        }
    }

    #[test]
    fn counts_locally_and_mirrors_into_the_registry() {
        let mirror = crate::metrics().counter("test.obs.ledger.taken");
        let before = mirror.get();
        let (a, b) = (Books::new(), Books::new());
        a.taken.add(3);
        b.taken.incr();
        a.loan_days.record(7);
        assert_eq!(a.snapshot().taken, 3, "per-instance count is exact");
        assert_eq!(b.snapshot().taken, 1);
        assert_eq!(mirror.get() - before, 4, "the mirror sums every owner");
        assert_eq!(
            a.snapshot().on_loan,
            0,
            "extras default; the owner fills them"
        );
    }

    #[test]
    fn a_broken_counter_names_the_identity_it_breaks() {
        let books = Books::new();
        books.taken.add(5);
        books.returned.add(4);
        books.lost.incr();
        assert_eq!(books.snapshot().violations(), Vec::<String>::new());
        // One return goes unrecorded: exactly the conservation identity
        // trips, rendered with both sides.
        books.taken.incr();
        assert_eq!(
            books.snapshot().violations(),
            ["taken == returned + lost: 6 vs 5"]
        );
        assert_eq!(BooksSnapshot::IDENTITIES.len(), 2);
    }
}
