"""Iterative probing for search-box keywords (Section 4.1).

Search boxes accept arbitrary keywords, so the surfacer has to *find* good
ones.  Following the paper: seed keywords are the words most characteristic
of the pages already indexed from the form's site (or, failing that, of the
form page itself); each probe's result page contributes new candidate
keywords; and the final selection keeps the keywords whose result pages are
diverse (they retrieve different records), which maximizes coverage per URL.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.form_model import SurfacingForm
from repro.core.probe import FormProber, ProbeResult
from repro.search.engine import SearchEngine
from repro.util.text import STOPWORDS, tokenize


@dataclass
class KeywordSelection:
    """Outcome of keyword selection for one search box."""

    input_name: str
    keywords: list[str] = field(default_factory=list)
    probes_issued: int = 0
    records_covered: int = 0
    rounds: int = 0


class IterativeProber:
    """Selects keywords for a search box by iterative probing."""

    def __init__(
        self,
        prober: FormProber,
        engine: SearchEngine | None = None,
        seed_count: int = 8,
        candidates_per_round: int = 12,
        max_rounds: int = 3,
        max_keywords: int = 20,
        min_df: int = 1,
    ) -> None:
        self.prober = prober
        self.engine = engine
        self.seed_count = seed_count
        self.candidates_per_round = candidates_per_round
        self.max_rounds = max_rounds
        self.max_keywords = max_keywords
        self.min_df = min_df

    # -- seeding ---------------------------------------------------------------

    def seed_keywords(self, form: SurfacingForm, form_page_html: str = "") -> list[str]:
        """Initial candidate keywords.

        Prefers words characteristic of already-indexed pages from the same
        host (the paper's strategy); falls back to the text of the page the
        form was found on.  Select-menu option values on the same form are
        always added as candidates -- they are content words of the site's
        domain and reliably bootstrap probing when nothing from the site is
        indexed yet.
        """
        counts: Counter = Counter()
        if self.engine is not None:
            counts.update(self.engine.site_term_frequencies(form.host))
        if not counts and form_page_html:
            text = self.prober.signature_cache.analyze(form_page_html).text
            counts.update(tokenize(text, drop_stopwords=True))
        candidates = [
            word
            for word, count in counts.most_common(self.seed_count * 4)
            if word not in STOPWORDS and not word.isdigit() and len(word) > 2
        ]
        option_tokens: list[str] = []
        for spec in form.select_inputs:
            for option in spec.options:
                for token in tokenize(str(option), drop_stopwords=True):
                    if len(token) > 2 and not token.isdigit() and token not in option_tokens:
                        option_tokens.append(token)
        seeds = candidates[: self.seed_count]
        for token in option_tokens:
            if len(seeds) >= self.seed_count * 2:
                break
            if token not in seeds:
                seeds.append(token)
        return seeds

    # -- candidate extraction ------------------------------------------------------

    def extract_candidates(self, result: ProbeResult, limit: int) -> list[str]:
        """New candidate keywords mined from a probe's result page."""
        text = self.prober.signature_cache.analyze(result.page.html).text
        counts = Counter(
            token
            for token in tokenize(text, drop_stopwords=True)
            if len(token) > 2 and not token.isdigit()
        )
        return [word for word, _ in counts.most_common(limit)]

    # -- selection -----------------------------------------------------------------

    def select_keywords(
        self,
        form: SurfacingForm,
        input_name: str,
        form_page_html: str = "",
    ) -> KeywordSelection:
        """Run iterative probing and pick a diverse keyword set.

        The final selection is greedy maximum coverage: keywords are added in
        order of how many *new* records their result page contributes, which
        both ensures diversity of result pages and bounds the number of URLs.
        """
        selection = KeywordSelection(input_name=input_name)
        if self.max_keywords <= 0 or self.max_rounds <= 0:
            return selection  # nothing can be selected: probe nothing
        candidates = self.seed_keywords(form, form_page_html)
        probed: dict[str, ProbeResult] = {}
        seen_candidates = set(candidates)
        for round_index in range(self.max_rounds):
            if not candidates:
                break
            selection.rounds = round_index + 1
            next_candidates: list[str] = []
            for keyword in candidates:
                if keyword in probed:
                    continue
                result = self.prober.probe(form, {input_name: keyword})
                selection.probes_issued += 1
                probed[keyword] = result
                if not result.has_results:
                    continue
                for new_keyword in self.extract_candidates(result, self.candidates_per_round):
                    if new_keyword not in seen_candidates:
                        seen_candidates.add(new_keyword)
                        next_candidates.append(new_keyword)
            candidates = next_candidates[: self.candidates_per_round]

        # Greedy max-coverage selection over the probed keywords.
        covered: set[str] = set()
        scored = [
            (keyword, result)
            for keyword, result in probed.items()
            if result.has_results
        ]
        while scored and len(selection.keywords) < self.max_keywords:
            best_keyword, best_result, best_gain = None, None, 0
            for keyword, result in scored:
                gain = len(result.signature.record_ids - covered)
                if gain > best_gain:
                    best_keyword, best_result, best_gain = keyword, result, gain
            if best_keyword is None or best_gain == 0:
                break
            selection.keywords.append(best_keyword)
            covered |= best_result.signature.record_ids
            scored = [(keyword, result) for keyword, result in scored if keyword != best_keyword]
        selection.records_covered = len(covered)
        return selection
