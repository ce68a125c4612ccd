//! What several integration suites share: training through the front
//! door.

use dana::{DanaReport, SystemCore};

/// Trains `udf` on `table` through `EXECUTE` on the FPGA tier and returns
/// its report.
pub fn execute(db: &SystemCore, udf: &str, table: &str) -> DanaReport {
    let sql = format!("EXECUTE {udf}('{table}') WITH (backend = fpga);");
    db.execute_statement(&sql)
        .unwrap()
        .report()
        .unwrap()
        .clone()
}
