//! Per-tenant submission queues with weighted-share QoS.
//!
//! Multi-tenant hosts carve one device fleet into shares: tenant A paid for
//! twice tenant B's throughput, so when both have work queued the dispatcher
//! should pick A twice as often. The fleet models this with classic weighted
//! fair queueing over per-tenant FIFO submission queues — the next dispatch
//! goes to the backlogged tenant with the smallest *normalised* service
//! `(served + 1) / weight`, ties broken by tenant index so a run is a pure
//! function of the trace.
//!
//! The queues are never materialised: request `i` belongs to tenant
//! `i % tenants`, so a tenant's FIFO is an arithmetic progression of request
//! indices, and the order streams from one next-request cursor and one
//! backlog flag per tenant — O(tenants) state, no allocation per request,
//! whatever the trace's length. [`dispatch_order`] collects the same stream.
//!
//! Two properties anchor the scheme (pinned in `tests/fleet_properties.rs`):
//!
//! * **Work conservation** — the dispatcher never idles while any tenant has
//!   queued requests, so total fleet throughput is unchanged by the split.
//! * **Weight monotonicity** — raising one tenant's weight (all else equal)
//!   never lowers its share of any dispatch prefix.
//!
//! With a single tenant the scheduler degenerates to the trace's own order,
//! which is what keeps the fleet-of-1 equivalence proof exact. Under open-loop
//! arrivals requests are issued at their (scaled) trace arrival times, so the
//! host never holds a backlog to arbitrate — QoS weights only shape
//! closed-loop dispatch order.

/// One tenant's share of the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantWeight {
    /// Display name, carried into the per-tenant summary rows.
    pub name: String,
    /// Relative share; a weight-2 tenant gets twice the dispatches of a
    /// weight-1 tenant while both are backlogged. Must be positive.
    pub weight: u64,
}

impl TenantWeight {
    /// A named tenant with the given relative weight.
    pub fn new(name: impl Into<String>, weight: u64) -> Self {
        TenantWeight { name: name.into(), weight }
    }
}

impl Default for TenantWeight {
    fn default() -> Self {
        TenantWeight::new("tenant-0", 1)
    }
}

/// Weighted-fair dispatch state over `n` tenants.
///
/// # Example
///
/// ```
/// use vflash_fleet::{TenantWeight, WeightedShares};
///
/// let mut wfq = WeightedShares::new(&[
///     TenantWeight::new("gold", 2),
///     TenantWeight::new("bronze", 1),
/// ]);
/// // While both are backlogged, gold gets two dispatches per bronze one.
/// let order: Vec<usize> = (0..6).map(|_| wfq.pick(&[true, true]).unwrap()).collect();
/// assert_eq!(order, [0, 0, 1, 0, 0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct WeightedShares {
    weights: Vec<u64>,
    served: Vec<u64>,
}

impl WeightedShares {
    /// Fresh dispatch state for the given tenants.
    ///
    /// # Panics
    ///
    /// Panics on an empty tenant list or a zero weight.
    pub fn new(tenants: &[TenantWeight]) -> Self {
        validate_tenants(tenants);
        let weights: Vec<u64> = tenants.iter().map(|tenant| tenant.weight).collect();
        WeightedShares { served: vec![0; weights.len()], weights }
    }

    /// Dispatches served to each tenant so far.
    pub fn served(&self) -> &[u64] {
        &self.served
    }

    /// Picks the next tenant among those with `backlogged[i] == true`:
    /// smallest `(served + 1) / weight`, compared exactly by
    /// cross-multiplication in `u128` (no float drift), ties to the lower
    /// index. Returns `None` when nobody is backlogged. The winner's served
    /// count is charged immediately.
    pub fn pick(&mut self, backlogged: &[bool]) -> Option<usize> {
        assert_eq!(backlogged.len(), self.weights.len(), "one flag per tenant");
        let mut best: Option<usize> = None;
        for (index, &ready) in backlogged.iter().enumerate() {
            if !ready {
                continue;
            }
            match best {
                None => best = Some(index),
                Some(current) => {
                    // (served[i]+1)/w[i] < (served[c]+1)/w[c]
                    //   ⇔ (served[i]+1)·w[c] < (served[c]+1)·w[i]
                    let lhs = (self.served[index] as u128 + 1) * self.weights[current] as u128;
                    let rhs = (self.served[current] as u128 + 1) * self.weights[index] as u128;
                    if lhs < rhs {
                        best = Some(index);
                    }
                }
            }
        }
        if let Some(winner) = best {
            self.served[winner] += 1;
        }
        best
    }
}

/// Panics on an empty tenant list or a zero weight: the tenant sets
/// [`WeightedShares`] can arbitrate, and so the ones a fleet accepts.
pub(crate) fn validate_tenants(tenants: &[TenantWeight]) {
    assert!(!tenants.is_empty(), "the tenant set must not be empty");
    assert!(tenants.iter().all(|tenant| tenant.weight > 0), "tenant weights must be positive");
}

/// The closed-loop dispatch order of `total` requests split round-robin over
/// the tenants (request `i` belongs to tenant `i % tenants.len()`), each
/// tenant's queue served FIFO under [`WeightedShares`] arbitration: the
/// request indices in dispatch order — a permutation of `0..total`.
///
/// With one tenant this is the identity permutation: the fleet replays the
/// trace in order, exactly like the single-device engine. The fleet itself
/// streams the same order instead of collecting it.
pub fn dispatch_order(tenants: &[TenantWeight], total: usize) -> Vec<usize> {
    DispatchOrder::new(tenants, total).collect()
}

/// [`dispatch_order`] as an iterator. A tenant's FIFO queue is the
/// arithmetic progression of its request indices, so its state is the next
/// index it owns and whether that index is still inside the trace: O(tenants)
/// in all, allocated once, however long the trace.
#[derive(Debug)]
pub(crate) struct DispatchOrder {
    /// `None`: the trace's own order (one tenant, or open loop).
    shares: Option<WeightedShares>,
    /// Per tenant, the next request index it owns.
    next: Vec<usize>,
    /// Per tenant, whether `next` is still below `total`.
    backlogged: Vec<bool>,
    total: usize,
    remaining: usize,
}

impl DispatchOrder {
    /// The weighted-fair order over `tenants`; the trace's own order for one
    /// tenant (or none).
    pub(crate) fn new(tenants: &[TenantWeight], total: usize) -> Self {
        if tenants.len() <= 1 {
            return DispatchOrder::in_trace_order(total);
        }
        let next: Vec<usize> = (0..tenants.len()).collect();
        DispatchOrder {
            shares: Some(WeightedShares::new(tenants)),
            backlogged: next.iter().map(|&request| request < total).collect(),
            next,
            total,
            remaining: total,
        }
    }

    /// `0..total`: one queue holding every request.
    pub(crate) fn in_trace_order(total: usize) -> Self {
        DispatchOrder {
            shares: None,
            next: vec![0],
            backlogged: vec![total > 0],
            total,
            remaining: total,
        }
    }
}

impl Iterator for DispatchOrder {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let tenant = match &mut self.shares {
            Some(shares) => shares.pick(&self.backlogged)?,
            None if self.backlogged[0] => 0,
            None => return None,
        };
        let request = self.next[tenant];
        let step = self.next.len();
        self.next[tenant] = request + step;
        self.backlogged[tenant] = self.total - request > step;
        self.remaining -= 1;
        Some(request)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_weights_round_robin() {
        let tenants = [TenantWeight::new("a", 1), TenantWeight::new("b", 1)];
        let mut wfq = WeightedShares::new(&tenants);
        let order: Vec<usize> = (0..4).map(|_| wfq.pick(&[true, true]).unwrap()).collect();
        assert_eq!(order, [0, 1, 0, 1]);
    }

    #[test]
    fn shares_track_weights_exactly() {
        let tenants = [TenantWeight::new("gold", 3), TenantWeight::new("bronze", 1)];
        let mut wfq = WeightedShares::new(&tenants);
        for _ in 0..40 {
            wfq.pick(&[true, true]);
        }
        assert_eq!(wfq.served(), &[30, 10]);
    }

    #[test]
    fn idle_tenants_are_skipped_and_nobody_backlogged_is_none() {
        let tenants = [TenantWeight::new("a", 1), TenantWeight::new("b", 8)];
        let mut wfq = WeightedShares::new(&tenants);
        assert_eq!(wfq.pick(&[true, false]), Some(0));
        assert_eq!(wfq.pick(&[false, false]), None);
    }

    #[test]
    fn dispatch_order_is_a_permutation_and_identity_for_one_tenant() {
        let single = dispatch_order(&[TenantWeight::default()], 5);
        assert_eq!(single, vec![0, 1, 2, 3, 4]);

        let tenants = [TenantWeight::new("a", 2), TenantWeight::new("b", 1)];
        let order = dispatch_order(&tenants, 9);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
        // Tenant a owns even request indices and is served twice as often up
        // front (ties go to the lower index): the first three dispatches are
        // a's requests 0 and 2, then b's request 1.
        assert_eq!(&order[..3], &[0, 2, 1]);
    }

    #[test]
    fn raising_a_weight_never_lowers_its_prefix_share() {
        let total = 60;
        let low = dispatch_order(&[TenantWeight::new("x", 1), TenantWeight::new("y", 3)], total);
        let high = dispatch_order(&[TenantWeight::new("x", 2), TenantWeight::new("y", 3)], total);
        for prefix in 1..=total {
            let share = |order: &[usize]| {
                order[..prefix].iter().filter(|&&request| request % 2 == 0).count()
            };
            assert!(share(&high) >= share(&low), "prefix {prefix}");
        }
    }

    #[test]
    fn invalid_tenant_sets_are_rejected() {
        assert!(std::panic::catch_unwind(|| WeightedShares::new(&[])).is_err());
        assert!(
            std::panic::catch_unwind(|| WeightedShares::new(&[TenantWeight::new("z", 0)]))
                .is_err()
        );
    }
}
