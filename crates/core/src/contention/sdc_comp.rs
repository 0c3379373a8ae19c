use mppm_cache::Sdc;

use super::ContentionModel;

/// The stack-distance-competition contention model (Chandra et al.,
/// HPCA 2005), provided as an ablation alternative to [`super::FoaModel`].
///
/// Instead of splitting the cache by access frequency, the A ways of a set
/// are assigned one at a time by *competition*: at each step the program
/// whose next (not yet covered) stack-distance counter is largest wins a
/// way, because its blocks at that recency depth are re-referenced most
/// often and would survive LRU. Program `p` ends up with `a_p` ways
/// (`Σ a_p = A`) and its extra misses are its hits deeper than `a_p`.
///
/// All windows are measured over the same wall-clock window, so raw
/// counter values are directly comparable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SdcCompetitionModel;

impl ContentionModel for SdcCompetitionModel {
    fn extra_misses(&self, windows: &[Sdc], assoc: u32, extra: &mut Vec<f64>) {
        extra.clear();
        extra.resize(windows.len(), 0.0);
        if windows.len() <= 1 {
            return;
        }
        // The ways each program wins, counted in `extra` (whole numbers,
        // exact in f64) before they become its extra misses.
        let ways = extra;
        let limit = f64::from(assoc);
        for _ in 0..assoc {
            // Ties go to the program holding fewer ways so far, keeping the
            // allocation symmetric for identical co-runners.
            let winner = (0..windows.len())
                .filter(|&p| ways[p] < limit)
                .max_by(|&a, &b| {
                    let ca = windows[a].counters()[ways[a] as usize];
                    let cb = windows[b].counters()[ways[b] as usize];
                    ca.total_cmp(&cb)
                        .then(ways[b].total_cmp(&ways[a]))
                        .then(b.cmp(&a))
                });
            match winner {
                Some(p) => ways[p] += 1.0,
                None => break,
            }
        }
        for (e, sdc) in ways.iter_mut().zip(windows) {
            *e = (sdc.misses_at(*e) - sdc.misses()).max(0.0);
        }
    }

    fn name(&self) -> &'static str {
        "SDC-competition"
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{extra_of, sdc};
    use super::*;

    #[test]
    fn dominant_reuser_wins_ways() {
        // Program 0 re-references shallow depths 10x more than program 1:
        // it should win nearly every way.
        let w = vec![sdc(&[100.0; 8], 0.0), sdc(&[10.0; 8], 0.0)];
        let extra = extra_of(&SdcCompetitionModel, &w, 8);
        assert!(extra[0] < extra[1], "loser suffers more: {extra:?}");
        // Winner takes all 8 ways -> zero extra misses.
        assert!(extra[0].abs() < 1e-9);
        // Loser keeps 0 ways -> all 80 hits become misses.
        assert!((extra[1] - 80.0).abs() < 1e-9);
    }

    #[test]
    fn equal_programs_split_ways() {
        let w = vec![sdc(&[10.0; 8], 0.0), sdc(&[10.0; 8], 0.0)];
        let extra = extra_of(&SdcCompetitionModel, &w, 8);
        // Ties resolved 4/4 (max_by keeps the later on ties, alternating
        // outcomes still end symmetric in total): each loses 4 depths.
        assert!((extra[0] + extra[1] - 80.0).abs() < 1e-9);
    }

    #[test]
    fn streamer_does_not_steal_ways() {
        // A streamer has no reuse (all misses), so its counters at every
        // depth are zero and it never wins a way.
        let w = vec![sdc(&[0.0; 8], 1000.0), sdc(&[10.0; 8], 0.0)];
        let extra = extra_of(&SdcCompetitionModel, &w, 8);
        assert!(extra[0].abs() < 1e-9);
        assert!(extra[1].abs() < 1e-9, "victim keeps all ways against a streamer");
    }

    #[test]
    fn differs_from_foa_against_streamers() {
        // This is the qualitative difference between the two models: FOA
        // lets a high-frequency streamer squeeze a reuser, competition
        // does not.
        use super::super::FoaModel;
        let w = vec![sdc(&[0.0; 8], 1000.0), sdc(&[10.0; 8], 0.0)];
        let foa = extra_of(&FoaModel, &w, 8);
        let comp = extra_of(&SdcCompetitionModel, &w, 8);
        assert!(foa[1] > comp[1]);
    }
}
