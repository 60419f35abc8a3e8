//! Plain-CSV export of experiment data (no external dependencies): lets
//! downstream users regenerate the paper's plots with any plotting tool.

use crate::experiments::{AccuracySample, LaplacePoint, Table2Row};
use std::fmt::Write as _;

/// Escape one CSV field.
fn field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Render Table-2 rows as CSV.
pub fn table2_csv(rows: &[Table2Row]) -> String {
    let mut out =
        String::from("app,size_min,size_max,procs_min,procs_max,min_err_pct,max_err_pct,samples\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{:.4},{:.4},{}",
            field(&r.app),
            r.sizes.0,
            r.sizes.1,
            r.procs.0,
            r.procs.1,
            r.min_err_pct,
            r.max_err_pct,
            r.samples
        );
    }
    out
}

/// Render raw accuracy samples as CSV.
pub fn samples_csv(samples: &[AccuracySample]) -> String {
    let mut out =
        String::from("app,size,procs,predicted_s,measured_s,measured_std_s,abs_error_pct\n");
    for s in samples {
        let _ = writeln!(
            out,
            "{},{},{},{:.9},{:.9},{:.9},{:.4}",
            field(&s.app),
            s.size,
            s.procs,
            s.predicted_s,
            s.measured_s,
            s.measured_std_s,
            s.abs_error_pct
        );
    }
    out
}

/// Render Figure-4/5 points as CSV.
pub fn laplace_csv(points: &[LaplacePoint]) -> String {
    let mut out = String::from("dist,procs,size,estimated_s,measured_s\n");
    for p in points {
        let _ = writeln!(
            out,
            "{},{},{},{:.9},{:.9}",
            field(&p.dist),
            p.procs,
            p.size,
            p.estimated_s,
            p.measured_s
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{AccuracySample, Table2Row};

    #[test]
    fn table2_csv_shape() {
        let rows = vec![Table2Row {
            app: "LFK 1".into(),
            sizes: (128, 4096),
            procs: (1, 8),
            min_err_pct: 1.5,
            max_err_pct: 12.25,
            samples: 24,
        }];
        let csv = table2_csv(&rows);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("app,size_min"));
        assert_eq!(
            lines.next().unwrap(),
            "LFK 1,128,4096,1,8,1.5000,12.2500,24"
        );
    }

    #[test]
    fn fields_with_commas_are_quoted() {
        let samples = vec![AccuracySample {
            app: "Laplace (Blk,Blk)".into(),
            size: 64,
            procs: 4,
            predicted_s: 0.1,
            measured_s: 0.11,
            measured_std_s: 0.001,
            abs_error_pct: 9.09,
        }];
        let csv = samples_csv(&samples);
        assert!(csv.contains("\"Laplace (Blk,Blk)\""), "{csv}");
    }

    #[test]
    fn quotes_are_doubled() {
        assert_eq!(field("a\"b,c"), "\"a\"\"b,c\"");
        assert_eq!(field("plain"), "plain");
    }
}
