//! Shared fan-out and reporting machinery: the scoped-thread parallel map
//! used to spread independent simulations over all cores, and the aligned
//! text-table renderer used by the terminal reports (the repro binaries
//! use both too).

/// Maps `f` over `items` on all available cores, preserving input order.
///
/// The explorer (and the repro binaries) fan out over cells that are
/// independent of each other — (benchmark, candidate-ISA) simulations,
/// (benchmark, target, opt-level) measurements — and this spreads them
/// over a scoped thread pool with a shared atomic work index, so a slow
/// cell does not serialize the rest. Worker threads build their
/// simulation inputs locally — `Matrix` payloads are `Rc`-backed and must
/// not cross threads.
///
/// # Panics
///
/// Re-raises the first panic from any worker (a failed cell must still
/// abort the whole run).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(items.len().max(1));
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(part) => part,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    tagged.sort_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Renders an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (k, cell) in row.iter().enumerate() {
            if k < widths.len() {
                widths[k] = widths[k].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (k, c) in cells.iter().enumerate() {
            line.push_str(&format!("{:<width$}  ", c, width = widths[k]));
        }
        line.trim_end().to_string()
    };
    let mut out = String::new();
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let squared = par_map(&items, |&x| x * x);
        assert_eq!(squared, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map::<u32, u32, _>(&[], |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            &["bench", "cycles"],
            &[
                vec!["fir".into(), "123".into()],
                vec!["iir".into(), "45".into()],
            ],
        );
        assert!(t.contains("bench"));
        assert!(t.lines().count() >= 4);
    }
}
