//! Figures 13–16: developer income distribution and strategies.

use crate::experiments::Output;
use crate::stores::Stores;
use appstore_revenue::{category_shares, developer_incomes, developer_strategies};
use appstore_stats::{gini, pearson, Ecdf};
use serde_json::json;

/// Fig. 13 — CDF of total income per developer (paper: half below $10,
/// 27% zero, 80% below $100, a tiny head with very large income).
pub fn fig13(stores: &Stores) -> Output {
    let d = &stores.slideme().store.dataset;
    let incomes = developer_incomes(d);
    let dollars: Vec<f64> = incomes.iter().map(|i| i.income.as_dollars()).collect();
    let ecdf = Ecdf::new(&dollars);
    let counts: Vec<u64> = incomes.iter().map(|i| i.income.0).collect();
    let zero = dollars.iter().filter(|&&v| v == 0.0).count() as f64 / dollars.len().max(1) as f64;
    let mut lines = Vec::new();
    lines.push(format!("paid-app developers: {}", incomes.len()));
    lines.push(format!(
        "P(income = $0): {:.2}   P(< $10): {:.2}   P(< $100): {:.2}   P(< $1500): {:.2}",
        zero,
        ecdf.eval(10.0 - 1e-9),
        ecdf.eval(100.0 - 1e-9),
        ecdf.eval(1500.0 - 1e-9)
    ));
    lines.push(format!(
        "max income: ${:.0}   Gini: {:.2}",
        ecdf.max().unwrap_or(0.0),
        gini(&counts).unwrap_or(f64::NAN)
    ));
    lines.push("paper: 27% zero, 50% < $10, 80% < $100, 95% < $1500; ~1% above $2M".into());
    Output {
        lines,
        json: json!({
            "developers": incomes.len(),
            "p_zero": zero,
            "p_lt_10": ecdf.eval(10.0 - 1e-9),
            "p_lt_100": ecdf.eval(100.0 - 1e-9),
            "p_lt_1500": ecdf.eval(1500.0 - 1e-9),
            "max_income": ecdf.max(),
            "gini": gini(&counts),
        }),
    }
}

/// Fig. 14 — income vs number of paid apps per developer (paper: no
/// correlation, Pearson 0.008 — quality over quantity).
pub fn fig14(stores: &Stores) -> Output {
    let d = &stores.slideme().store.dataset;
    let incomes = developer_incomes(d);
    let apps: Vec<f64> = incomes.iter().map(|i| i.paid_apps as f64).collect();
    let dollars: Vec<f64> = incomes.iter().map(|i| i.income.as_dollars()).collect();
    let r = pearson(&apps, &dollars).unwrap_or(f64::NAN);
    // Average income for 1-app vs many-app developers.
    let avg = |pred: &dyn Fn(usize) -> bool| {
        let sel: Vec<f64> = incomes
            .iter()
            .filter(|i| pred(i.paid_apps))
            .map(|i| i.income.as_dollars())
            .collect();
        sel.iter().sum::<f64>() / sel.len().max(1) as f64
    };
    let single = avg(&|n| n == 1);
    let many = avg(&|n| n >= 5);
    let mut lines = Vec::new();
    lines.push(format!(
        "Pearson(paid apps, income) = {r:.3}   (paper: 0.008)"
    ));
    lines.push(format!(
        "avg income: single-app devs ${single:.0}, 5+-app devs ${many:.0}"
    ));
    lines.push("more apps do not imply more income — quality over quantity".into());
    Output {
        lines,
        json: json!({
            "pearson": r,
            "avg_income_single": single,
            "avg_income_many": many,
        }),
    }
}

/// Fig. 15 — revenue / apps / developers percentage per category
/// (paper: music 67.7% revenue from 1.6% of apps; e-books 33.2% of apps
/// for 0.1% of revenue; top four categories: 95% of revenue).
pub fn fig15(stores: &Stores) -> Output {
    let d = &stores.slideme().store.dataset;
    let shares = category_shares(d);
    let mut lines = Vec::new();
    lines.push(format!(
        "{:<16} {:>10} {:>10} {:>12}",
        "category", "revenue%", "apps%", "developers%"
    ));
    for s in shares.iter().take(8) {
        lines.push(format!(
            "{:<16} {:>9.1}% {:>9.1}% {:>11.1}%",
            s.name,
            s.revenue_share * 100.0,
            s.app_share * 100.0,
            s.developer_share * 100.0
        ));
    }
    let top4: f64 = shares.iter().take(4).map(|s| s.revenue_share).sum();
    let ebooks = shares.iter().find(|s| s.name == "e-books");
    lines.push(format!(
        "top-4 categories hold {:.1}% of revenue (paper: 95%)",
        top4 * 100.0
    ));
    if let Some(e) = ebooks {
        lines.push(format!(
            "e-books: {:.1}% of apps but {:.2}% of revenue (paper: 33.2% / 0.1%)",
            e.app_share * 100.0,
            e.revenue_share * 100.0
        ));
    }
    Output {
        lines,
        json: json!({
            "top4_revenue": top4,
            "shares": shares.iter().map(|s| json!({
                "category": s.name,
                "revenue": s.revenue_share,
                "apps": s.app_share,
                "developers": s.developer_share,
            })).collect::<Vec<_>>(),
        }),
    }
}

/// Fig. 16 — apps per developer and categories per developer, split by
/// tier (paper: 60%/70% single-app; 95% under 10 apps; 99% within five
/// categories; strategy mix 75/15/10).
pub fn fig16(stores: &Stores) -> Output {
    let d = &stores.slideme().store.dataset;
    let mix = developer_strategies(d);
    let free_apps = Ecdf::from_counts(&mix.free_apps_per_developer);
    let paid_apps = Ecdf::from_counts(&mix.paid_apps_per_developer);
    let free_cats = Ecdf::from_counts(&mix.free_categories_per_developer);
    let paid_cats = Ecdf::from_counts(&mix.paid_categories_per_developer);
    let total = (mix.free_only + mix.paid_only + mix.both).max(1) as f64;
    let mut lines = Vec::new();
    lines.push(format!(
        "strategy mix: free-only {:.0}%  paid-only {:.0}%  both {:.0}%   (paper: 75/15/10)",
        mix.free_only as f64 / total * 100.0,
        mix.paid_only as f64 / total * 100.0,
        mix.both as f64 / total * 100.0
    ));
    lines.push(format!(
        "(a) P(1 app): free {:.2}, paid {:.2}   P(<10 apps): free {:.2}, paid {:.2}",
        free_apps.eval(1.0),
        paid_apps.eval(1.0),
        free_apps.eval(9.0),
        paid_apps.eval(9.0)
    ));
    lines.push(format!(
        "(b) P(1 category): free {:.2}, paid {:.2}   P(<=5): free {:.2}, paid {:.2}",
        free_cats.eval(1.0),
        paid_cats.eval(1.0),
        free_cats.eval(5.0),
        paid_cats.eval(5.0)
    ));
    let apps_per_dev = d.apps.len() as f64 / total;
    lines.push(format!(
        "apps per developer: {apps_per_dev:.1}   (paper: 4.3)"
    ));
    Output {
        lines,
        json: json!({
            "free_only": mix.free_only,
            "paid_only": mix.paid_only,
            "both": mix.both,
            "p_single_app_free": free_apps.eval(1.0),
            "p_single_app_paid": paid_apps.eval(1.0),
            "p_single_cat_free": free_cats.eval(1.0),
            "p_single_cat_paid": paid_cats.eval(1.0),
            "apps_per_developer": apps_per_dev,
        }),
    }
}
