use cyclesteal_core::prelude::*;
use cyclesteal_dp::CompressedTable;

fn main() {
    // Predicted: beta_p = (beta_{p-1} + sqrt(beta_{p-1}^2+4))/2, beta_1 = 1.
    let mut beta = vec![0.0f64, 1.0];
    for _ in 2..=5 {
        let b = beta.last().unwrap();
        beta.push((b + (b * b + 4.0).sqrt()) / 2.0);
    }
    println!("predicted beta: {:?}", &beta[1..]);
    let table = CompressedTable::solve_event_driven(secs(1.0), 8, secs(131072.0), 4);
    for p in 1..=4u32 {
        print!("p={p} measured:");
        for &u in &[4096.0, 16384.0, 65536.0, 131072.0] {
            let w = table.value(p, secs(u));
            print!(" U={u}: {:.4}", (u - w.get()) / (2.0 * u).sqrt());
        }
        println!("  predicted {:.4}", beta[p as usize]);
    }
}
