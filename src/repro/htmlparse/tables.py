"""HTML-table extraction (the raw material of the WebTables corpus)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.htmlparse.dom import DomNode, parse_html


@dataclass(frozen=True)
class HtmlTable:
    """One extracted table: an optional header row plus data rows."""

    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    css_class: str = ""
    page_url: str = ""

    @property
    def has_header(self) -> bool:
        return bool(self.header)

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def column_count(self) -> int:
        if self.header:
            return len(self.header)
        return len(self.rows[0]) if self.rows else 0


def _cell_text(cell: DomNode) -> str:
    return cell.text().strip()


def extract_tables(html_or_dom: str | DomNode, page_url: str = "") -> list[HtmlTable]:
    """Extract every ``<table>`` from a document.

    A row made entirely of ``<th>`` cells (or the first row when a table uses
    ``<th>`` anywhere in it) is treated as the header row.  Attribute/value
    tables (2-column tables whose first column is all ``<th>``) are returned
    with an empty header and one row per attribute pair, matching how
    detail-page tables should be read.
    """
    if isinstance(html_or_dom, str):
        # A table element needs a literal ``<table`` start tag; most pages
        # have none, and finding that out must not cost a DOM.
        if "<table" not in html_or_dom.lower():
            return []
        root = parse_html(html_or_dom)
    else:
        root = html_or_dom
    tables: list[HtmlTable] = []
    for table_node in root.find_all("table"):
        raw_rows: list[tuple[list[str], list[str]]] = []  # (th texts, td texts)
        for row_node in table_node.find_all("tr"):
            th_cells = [_cell_text(cell) for cell in row_node.direct_children("th")]
            td_cells = [_cell_text(cell) for cell in row_node.direct_children("td")]
            raw_rows.append((th_cells, td_cells))
        if not raw_rows:
            continue
        header: tuple[str, ...] = ()
        data_rows: list[tuple[str, ...]] = []
        is_attribute_table = all(
            len(th) == 1 and len(td) >= 1 for th, td in raw_rows
        )
        if is_attribute_table:
            # Detail-page style: <tr><th>attr</th><td>value</td></tr>.
            for th, td in raw_rows:
                data_rows.append((th[0], td[0]))
        else:
            first_th, first_td = raw_rows[0]
            if first_th and not first_td:
                header = tuple(first_th)
                body = raw_rows[1:]
            else:
                body = raw_rows
            for th, td in body:
                cells = tuple(th + td)
                if cells:
                    data_rows.append(cells)
        tables.append(
            HtmlTable(
                header=header,
                rows=tuple(data_rows),
                css_class=table_node.attr("class", ""),
                page_url=page_url,
            )
        )
    return tables
